package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"holistic"
)

// target executes one operation and returns its answer in the oracle's
// shape. storeTarget drives the public holistic.Store API; stack (in
// trace.go) drives the executor and query runner beneath it.
type target interface {
	do(o *op) (answer, error)
}

// pass is one execution of a workload's operation sequence.
type pass struct {
	lat       [numOpKinds][]time.Duration
	reads     []time.Duration
	writes    []time.Duration
	readTotal time.Duration
	cpu       time.Duration
	attempted int
	failed    int
}

// runPass issues every operation in order from one goroutine, timing
// each and checking its answer. Think time follows each answer and is
// not part of any latency. With a tracer, each operation opens the
// root span of its query id.
func runPass(w *workload, t target, tr *tracer) *pass {
	p := &pass{}
	cpu0 := cpuTime()
	for i := range w.ops {
		o := &w.ops[i]
		var id int32
		if tr != nil {
			tr.query = int32(i)
			id = tr.begin(opSpan[o.kind])
		}
		start := time.Now()
		got, err := t.do(o)
		el := time.Since(start)
		if tr != nil {
			tr.end(id)
		}
		p.lat[o.kind] = append(p.lat[o.kind], el)
		if o.kind.write() {
			p.writes = append(p.writes, el)
		} else {
			p.reads = append(p.reads, el)
			p.readTotal += el
		}
		p.check(i, opNames[o.kind], got, o.want, err)
		if w.think > 0 {
			time.Sleep(w.think)
		}
	}
	p.cpu = cpuTime() - cpu0
	return p
}

// check counts one attempted operation and, if it erred or answered
// wrong, one failed operation. Failures are reported, never filtered.
func (p *pass) check(i int, what string, got, want answer, err error) {
	p.attempted++
	if err == nil && got == want {
		return
	}
	p.failed++
	if p.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op %d (%s) failed: got %+v want %+v err %v\n", i, what, got, want, err)
	}
}

var opSpan = func() (s [numOpKinds]string) {
	for k := range s {
		s[k] = "op." + opNames[k]
	}
	return s
}()

// storeTarget drives the stores of one workload through the public API.
type storeTarget struct {
	w    *workload
	ss   []*holistic.Store
	seen []uint64 // scratch bitmap for checking SelectRows results
}

func (t *storeTarget) query(ti int, preds []pred) *holistic.Query {
	q := t.ss[ti].Query()
	for _, p := range preds {
		q.Where(t.w.tables[ti].attrs[p.attr], p.lo, p.hi)
	}
	return q
}

func (t *storeTarget) do(o *op) (answer, error) {
	s, tb := t.ss[0], t.w.tables[0]
	var p pred
	if len(o.preds) > 0 {
		p = o.preds[0]
	}
	switch o.kind {
	case opCount:
		n, err := s.CountRange(tb.attrs[p.attr], p.lo, p.hi)
		return answer{n: int64(n)}, err
	case opSum:
		v, err := s.SumRange(tb.attrs[p.attr], p.lo, p.hi)
		return answer{sum: v}, err
	case opMinMax:
		mn, mx, ok, err := s.MinMaxRange(tb.attrs[p.attr], p.lo, p.hi)
		return minMaxAnswer(mn, mx, ok), err
	case opRows:
		rows, err := s.SelectRows(tb.attrs[p.attr], p.lo, p.hi)
		return rowsAnswer(rows, tb.cols[p.attr], p, &t.seen), err
	case opConjCount:
		n, err := t.query(0, o.preds).Count()
		return answer{n: int64(n)}, err
	case opConjSum:
		v, err := t.query(0, o.preds).Sum(tb.attrs[o.attr])
		return answer{sum: v}, err
	case opGroup:
		res, err := t.query(0, o.preds).GroupBy(tb.attrs[2]).Aggregate(holistic.Count(), holistic.Sum(tb.attrs[1]))
		if err != nil {
			return answer{}, err
		}
		return groupPrint(res.Keys[0], res.Aggs[0], res.Aggs[1]), nil
	case opJoin:
		n, err := t.query(0, o.preds).Join(t.query(1, o.dimPreds), tb.attrs[3], t.w.tables[1].attrs[0]).Count()
		return answer{n: n}, err
	case opInsert:
		return answer{}, s.Insert(tb.attrs[o.attr], o.v)
	case opUpdate:
		return answer{}, s.Update(tb.attrs[o.attr], o.v, o.w)
	case opDelete:
		return answer{}, s.Delete(tb.attrs[o.attr], o.v)
	}
	return answer{}, fmt.Errorf("unknown op kind %d", o.kind)
}

func minMaxAnswer(mn, mx int64, ok bool) answer {
	if !ok {
		return answer{}
	}
	return answer{mn: mn, mx: mx, ok: true}
}

// rowsAnswer reduces a SelectRows result to its count when every row is
// distinct and holds a qualifying value, and to -1 otherwise.
func rowsAnswer(rows []uint32, col []int64, p pred, seen *[]uint64) answer {
	if need := (len(col) + 63) / 64; len(*seen) < need {
		*seen = make([]uint64, need)
	}
	bits := *seen
	bad := false
	for _, r := range rows {
		if int(r) >= len(col) || col[r] < p.lo || col[r] >= p.hi || bits[r/64]&(1<<(r%64)) != 0 {
			bad = true
			break
		}
		bits[r/64] |= 1 << (r % 64)
	}
	for _, r := range rows {
		if int(r) < len(col) {
			bits[r/64] = 0
		}
	}
	if bad {
		return answer{n: -1}
	}
	return answer{n: int64(len(rows))}
}

// storeConfig is the configuration every measured store uses: library
// defaults except Mode, Threads and Seed, so a change to a default shows
// in the numbers.
func storeConfig(mode holistic.Mode, threads int, seed uint64) holistic.Config {
	return holistic.Config{Mode: mode, Threads: threads, Seed: int64(seed)}
}

// columns returns a private copy of every generated column, table by
// table: a store owns the slices it is given and appends to them.
func (w *workload) columns() [][][]int64 {
	out := make([][][]int64, len(w.tables))
	for ti, t := range w.tables {
		for _, c := range t.cols {
			out[ti] = append(out[ti], slices.Clone(c))
		}
	}
	return out
}

// openStores creates one store per table and loads it: NewStore, or
// OpenStore in dir for durable workloads; AddIntColumn with cols, the
// table's columns from w.columns; Prepare; and, for durable stores, a
// first Checkpoint.
func openStores(w *workload, cfg holistic.Config, dir string, cols [][][]int64) ([]*holistic.Store, error) {
	var ss []*holistic.Store
	fail := func(err error) ([]*holistic.Store, error) {
		closeAll(ss)
		return nil, err
	}
	for ti, t := range w.tables {
		var s *holistic.Store
		if w.durable {
			var err error
			if s, err = holistic.OpenStore(filepath.Join(dir, t.name), cfg); err != nil {
				return fail(err)
			}
		} else {
			s = holistic.NewStore(cfg)
		}
		ss = append(ss, s)
		for i, a := range t.attrs {
			if err := s.AddIntColumn(a, cols[ti][i]); err != nil {
				return fail(err)
			}
		}
		s.Prepare()
		if w.durable {
			if err := s.Checkpoint(); err != nil {
				return fail(err)
			}
		}
	}
	return ss, nil
}

func closeAll(ss []*holistic.Store) {
	for _, s := range ss {
		s.Close()
	}
}

// setupReps is how many times setup builds a workload's stores; every
// repetition's time is a setup_s sample.
const setupReps = 7

// setup builds the workload's stores setupReps times, keeps the last
// set and returns every repetition's time. Durable stores get a fresh
// directory under work each time.
func setup(w *workload, cfg holistic.Config, work string) ([]*holistic.Store, string, []time.Duration, error) {
	var times []time.Duration
	var ss []*holistic.Store
	var dir string
	for rep := range setupReps {
		if ss != nil {
			closeAll(ss)
			if err := os.RemoveAll(dir); err != nil {
				return nil, "", nil, err
			}
		}
		// Start every repetition from a collected heap, so each one
		// reuses the memory the last one freed.
		runtime.GC()
		dir = filepath.Join(work, fmt.Sprintf("store-%d-%d", os.Getpid(), rep))
		cols := w.columns()
		start := time.Now()
		var err error
		if ss, err = openStores(w, cfg, dir, cols); err != nil {
			return nil, "", nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		times = append(times, time.Since(start))
	}
	return ss, dir, times, nil
}

// fullLo and fullHi bound a range that covers every value.
const fullLo, fullHi = math.MinInt64, math.MaxInt64

// reopened is what reopening a durable store measured.
type reopened struct {
	reopen, recover time.Duration
}

// reopen closes the durable store of the first table, opens it again
// and answers one query (reopen), then checks that every attribute's
// full-range count and sum match the live multiset, so every
// acknowledged write must survive Close and OpenStore.
func reopen(w *workload, ss []*holistic.Store, cfg holistic.Config, dir string, p *pass) (*holistic.Store, reopened, error) {
	tb := w.tables[0]
	start := time.Now()
	ss[0].Close()
	s, err := holistic.OpenStore(filepath.Join(dir, tb.name), cfg)
	if err != nil {
		return nil, reopened{}, fmt.Errorf("reopen: %w", err)
	}
	rec := time.Since(start)
	n, err := s.CountRange(tb.attrs[0], fullLo, fullHi)
	r := reopened{reopen: time.Since(start), recover: rec}
	p.check(-1, "reopen count "+tb.attrs[0], answer{n: int64(n)}, answer{n: w.final[0].n}, err)
	for i, a := range tb.attrs {
		if i > 0 {
			n, err := s.CountRange(a, fullLo, fullHi)
			p.check(-1, "reopen count "+a, answer{n: int64(n)}, answer{n: w.final[i].n}, err)
		}
		sum, err := s.SumRange(a, fullLo, fullHi)
		p.check(-1, "reopen sum "+a, answer{sum: sum}, answer{sum: w.final[i].sum}, err)
	}
	return s, r, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median[T cmp.Ordered](d []T) T { return quantile(d, 0.5) }

// quantile returns the q-quantile (nearest rank) of d, 0 when empty.
func quantile[T cmp.Ordered](d []T, q float64) T {
	if len(d) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
