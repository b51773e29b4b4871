package engine

import (
	"math/rand"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/holistic"
	"holistic/internal/workload"
)

// writer is the write-capable surface the adaptive, stochastic and
// holistic executors share.
type writer interface {
	Executor
	Inserter
	Deleter
	Updater
	Viewer
}

// rowModel is the naive reference for row resolution: the current value
// and liveness of every row, base then tail.
type rowModel struct {
	vals []int64
	live []bool
}

// resolve returns the lowest live row whose current value is v.
func (m *rowModel) resolve(v int64) (int, bool) {
	for i, x := range m.vals {
		if m.live[i] && x == v {
			return i, true
		}
	}
	return 0, false
}

func (m *rowModel) count(lo, hi int64) int {
	n := 0
	for i, x := range m.vals {
		if m.live[i] && x >= lo && x < hi {
			n++
		}
	}
	return n
}

// rowResolutionCheck drives one executor and the model through the same
// writes and compares them after each one.
type rowResolutionCheck struct {
	t *testing.T
	e writer
	m *rowModel
}

func (c *rowResolutionCheck) insert(v int64) {
	c.t.Helper()
	if err := c.e.Insert("a", v); err != nil {
		c.t.Fatal(err)
	}
	c.m.vals = append(c.m.vals, v)
	c.m.live = append(c.m.live, true)
	c.compare("insert", v)
}

func (c *rowResolutionCheck) delete(v int64) {
	c.t.Helper()
	row, ok := c.m.resolve(v)
	err := c.e.Delete("a", v)
	if ok != (err == nil) {
		c.t.Fatalf("delete %d: err = %v, model has a live row: %v", v, err, ok)
	}
	if ok {
		c.m.live[row] = false
	}
	c.compare("delete", v)
}

func (c *rowResolutionCheck) update(oldV, newV int64) {
	c.t.Helper()
	row, ok := c.m.resolve(oldV)
	err := c.e.Update("a", oldV, newV)
	if ok != (err == nil) {
		c.t.Fatalf("update %d->%d: err = %v, model has a live row: %v", oldV, newV, err, ok)
	}
	if ok {
		c.m.vals[row] = newV
	}
	c.compare("update", oldV)
}

// compare checks the executor's view against the model row by row.
func (c *rowResolutionCheck) compare(op string, v int64) {
	c.t.Helper()
	w, err := c.e.View("a")
	if err != nil {
		c.t.Fatal(err)
	}
	if w.Extent() != len(c.m.vals) {
		c.t.Fatalf("after %s %d: view extent %d, model %d rows", op, v, w.Extent(), len(c.m.vals))
	}
	for i, want := range c.m.vals {
		got, ok := w.At(column.Pos(i))
		if ok != c.m.live[i] || ok && got != want {
			c.t.Fatalf("after %s %d: row %d = (%d, %v), model (%d, %v)", op, v, i, got, ok, want, c.m.live[i])
		}
	}
}

func (c *rowResolutionCheck) countMatches(lo, hi int64) {
	c.t.Helper()
	got, err := c.e.Count("a", lo, hi)
	if err != nil {
		c.t.Fatal(err)
	}
	if want := c.m.count(lo, hi); got != want {
		c.t.Fatalf("count [%d, %d) = %d, model %d", lo, hi, got, want)
	}
}

// TestRowResolutionDifferential holds Delete and Update to their
// contract — the target is the lowest row whose current logical value is
// v — against a naive model, on a heavily duplicated column. A scripted
// prefix forces the cases the resolution has to combine (a row updated
// to v below the first base row holding v, deletes and updates of rows
// already updated, updated and deleted tail rows, absent values); a
// seeded random phase then mixes writes with counts, which merge the
// pending operations into the cracker as they go.
func TestRowResolutionDifferential(t *testing.T) {
	const rows, domain = 4096, 16
	execs := map[string]func(*Table) writer{
		"adaptive": func(tbl *Table) writer {
			return NewAdaptiveExecutor(tbl, cracking.Config{WithRows: true}, "")
		},
		"stochastic": func(tbl *Table) writer {
			return NewAdaptiveExecutor(tbl, cracking.Config{Stochastic: true, WithRows: true, Seed: 3}, "stochastic")
		},
		"holistic": func(tbl *Table) writer {
			return NewHolisticExecutor(tbl, HolisticConfig{
				Cracking: cracking.Config{WithRows: true},
				Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 8, Seed: 7},
				L1Values: 64,
				Contexts: 2,
			})
		},
	}
	for name, build := range execs {
		t.Run(name, func(t *testing.T) {
			base := workload.UniformColumn(rows, domain, 21)
			tbl := NewTable("t")
			tbl.MustAddColumn(column.New("a", base))
			e := build(tbl)
			defer e.Close()
			c := &rowResolutionCheck{t: t, e: e, m: &rowModel{
				vals: append([]int64(nil), base...),
				live: make([]bool, rows),
			}}
			for i := range c.m.live {
				c.m.live[i] = true
			}

			// v is the value whose first base row is the highest, so rows
			// below it hold other values.
			first := make(map[int64]int)
			for i := len(base) - 1; i >= 0; i-- {
				first[base[i]] = i
			}
			v := base[0]
			for x, at := range first {
				if at > first[v] {
					v = x
				}
			}
			// Row 0 updated to v sits below v's first base row: both
			// deleting and updating v must now pick row 0.
			c.update(base[0], v)
			c.update(v, 100)
			c.update(100, v)
			c.delete(v)
			// A row updated twice, then deleted by its newest value.
			c.update(base[1], 101)
			c.update(101, 102)
			c.update(102, 103)
			c.delete(103)
			// Tail rows: updated, deleted, and updated below a later tail
			// row holding the same raw value.
			c.insert(200)
			c.insert(200)
			c.insert(201)
			c.update(200, 201)
			c.delete(201)
			c.delete(200)
			c.insert(v)
			c.update(v, 202)
			// Absent values error: never present, and present only in
			// rows that are gone or rewritten.
			c.delete(999)
			c.update(999, 1)
			c.delete(200)
			c.update(101, 1)
			c.countMatches(-1, 1000)

			// Inserted and updated values reach past the base domain, so
			// some values live only in tail or updated rows; targets reach
			// further still, so some are absent.
			rng := rand.New(rand.NewSource(5))
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(8); {
				case r < 2:
					c.insert(rng.Int63n(domain + 8))
				case r < 4:
					c.delete(rng.Int63n(domain + 10))
				case r < 6:
					c.update(rng.Int63n(domain+10), rng.Int63n(domain+8))
				default:
					lo := rng.Int63n(domain+10) - 1
					c.countMatches(lo, lo+rng.Int63n(domain)+1)
				}
			}
			c.countMatches(-1, 1000)
		})
	}
}

// BenchmarkDeleteUpdate reports the cost of one Delete or Update on a
// 2^19-row column whose overlay already holds 1000 updated rows. Each
// iteration targets the value of a random base row, and a delete is
// paired with an insert of the same value so the column keeps its
// value multiset.
func BenchmarkDeleteUpdate(b *testing.B) {
	const rows = 1 << 19
	base := workload.UniformColumn(rows, rows, 9)
	for _, op := range []string{"update", "delete"} {
		b.Run(op, func(b *testing.B) {
			tbl := NewTable("t")
			tbl.MustAddColumn(column.New("a", base))
			e := NewAdaptiveExecutor(tbl, cracking.Config{WithRows: true}, "")
			defer e.Close()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 1000; i++ {
				v := base[rng.Intn(rows)]
				if err := e.Update("a", v, v+rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := base[rng.Intn(rows)]
				if op == "update" {
					_ = e.Update("a", v, v)
					continue
				}
				if e.Delete("a", v) == nil {
					_ = e.Insert("a", v)
				}
			}
		})
	}
}
