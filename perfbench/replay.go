package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
)

// Kernel replays. Bounds are drawn at run time from the seed and every
// result is folded into sink, which the run prints, so the compiler
// cannot fold a kernel away.

var sink int64

// crackingReplay replays the workload's select and update stream, in
// order, through cracking.Column's public functions with the cracker
// configuration a holistic store uses and no daemon. It returns the
// per-layer metrics and counts wrong single-predicate counts into p.
func crackingReplay(w *workload, seed uint64, threads int, p *pass) map[string]float64 {
	cfg := cracking.Config{
		Kernel:          cracking.KernelVectorized,
		ParallelWorkers: max(threads/2, 1),
		WithRows:        true,
		Seed:            int64(seed),
	}
	type key struct{ table, attr int }
	cols := map[key]*cracking.Column{}
	nextRow := map[key]uint32{}
	var firstTouch, partition time.Duration
	touched := 0
	var partitioned int64
	var selects, merges []time.Duration
	// built holds the construction time of columns no select has cracked
	// yet: a column's first touch is its construction plus its first
	// crack, even when writes reach it first.
	built := map[key]time.Duration{}
	open := func(k key) *cracking.Column {
		base := w.tables[k.table].cols[k.attr]
		start := time.Now()
		c := cracking.New(w.tables[k.table].attrs[k.attr], base, cfg)
		built[k] = time.Since(start)
		cols[k] = c
		nextRow[k] = uint32(len(base))
		return c
	}
	sel := func(k key, lo, hi int64) cracking.Range {
		c, ok := cols[k]
		if !ok {
			c = open(k)
		}
		start := time.Now()
		r := c.SelectRange(lo, hi)
		d := time.Since(start)
		if b, first := built[k]; first {
			delete(built, k)
			touched++
			firstTouch += b + d
			partition += d
			partitioned += int64(c.Len()) * 12 // an int64 value and a uint32 rowid each
		} else {
			selects = append(selects, d)
		}
		return r
	}
	for i := range w.ops {
		o := &w.ops[i]
		for _, pr := range o.preds {
			r := sel(key{0, pr.attr}, pr.lo, pr.hi)
			sink += int64(r.Count())
			if o.kind == opCount {
				p.check(i, "cracking replay count", answer{n: int64(r.Count())}, o.want, nil)
			}
		}
		for _, pr := range o.dimPreds {
			r := sel(key{1, pr.attr}, pr.lo, pr.hi)
			sink += int64(r.Count())
		}
		if !o.kind.write() {
			continue
		}
		k := key{0, o.attr}
		c, ok := cols[k]
		if !ok {
			c = open(k)
		}
		start := time.Now()
		switch o.kind {
		case opInsert:
			c.MergeInsert(o.v, nextRow[k])
			nextRow[k]++
		case opDelete:
			c.MergeDelete(o.v)
		case opUpdate:
			row, _ := c.MergeDelete(o.v)
			c.MergeInsert(o.w, row)
		}
		merges = append(merges, time.Since(start))
	}
	pieces := 0
	for _, c := range cols {
		pieces += c.Pieces()
	}
	return map[string]float64{
		"cracking.select_us":      us(median(selects)),
		"cracking.first_touch_ms": ratio(float64(firstTouch.Nanoseconds())/1e6, float64(touched)),
		"cracking.partition_gbps": ratio(float64(partitioned), float64(partition.Nanoseconds())),
		"cracking.pieces":         float64(pieces),
		"cracking.merge_us":       us(median(merges)),
	}
}

// sweep is the selectivity sweep of the column kernel replay.
var sweep = []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.9}

const kernelReps = 3

// kernelStats accumulates one kernel's time and input rows (int64
// values, 8 bytes each).
type kernelStats struct {
	t    time.Duration
	rows int64
}

func (k *kernelStats) add(d time.Duration, rows int) {
	k.t += d
	k.rows += int64(rows)
}

func (k kernelStats) gbps() float64     { return ratio(float64(8*k.rows), float64(k.t.Nanoseconds())) }
func (k kernelStats) nsPerRow() float64 { return ratio(float64(k.t.Nanoseconds()), float64(k.rows)) }

// columnReplay runs the scan kernels over the first table's own columns
// at each swept selectivity, with bounds drawn from a seeded sample of
// each column. It prints ns/value and GB/s per selectivity and returns
// the whole-sweep per-layer metrics.
func columnReplay(w *workload, seed uint64) map[string]float64 {
	r := rand.New(rand.NewPCG(seed, 2))
	cols := w.tables[0].cols
	cols = cols[:min(len(cols), 4)]
	samples := make([][]int64, len(cols))
	for i, col := range cols {
		s := make([]int64, 4096)
		for j := range s {
			s[j] = col[r.IntN(len(col))]
		}
		slices.Sort(s)
		samples[i] = s
	}
	bounds := func(ci int, sel float64) (int64, int64) {
		s := samples[ci]
		width := int(sel * float64(len(s)))
		i := r.IntN(len(s) - width)
		lo, hi := s[i], s[i+width]
		if hi <= lo {
			hi = lo + 1
		}
		return lo, hi
	}
	var count, sum, bitmap, filter kernelStats
	bm := column.NewBitmap(len(cols[0]))
	fmt.Printf("%-8s %14s %14s %14s %16s\n", "sel", "count ns/val", "sum ns/val", "bitmap ns/val", "filter ns/row")
	for _, sel := range sweep {
		var c, s, b, f kernelStats
		for range kernelReps {
			for ci, col := range cols {
				lo, hi := bounds(ci, sel)
				start := time.Now()
				sink += int64(column.CountRange(col, lo, hi))
				c.add(time.Since(start), len(col))

				start = time.Now()
				sink += column.SumRange(col, lo, hi)
				s.add(time.Since(start), len(col))

				bm.Reset(len(col))
				start = time.Now()
				column.ScanRangeBitmap(col, lo, hi, bm)
				b.add(time.Since(start), len(col))
				sink += int64(bm.Count())

				// Filter the candidates of a 10% conjunct on the next
				// column by this column's bounds.
				oc := (ci + 1) % len(cols)
				olo, ohi := bounds(oc, 0.1)
				cand := column.ScanRange(cols[oc], olo, ohi)
				start = time.Now()
				out := column.FilterRows(col, cand, lo, hi)
				f.add(time.Since(start), len(cand))
				sink += int64(len(out))
			}
		}
		fmt.Printf("%-8g %14.3f %14.3f %14.3f %16.3f   (GB/s %.2f %.2f %.2f)\n", sel,
			c.nsPerRow(), s.nsPerRow(), b.nsPerRow(), f.nsPerRow(), c.gbps(), s.gbps(), b.gbps())
		count.add(c.t, int(c.rows))
		sum.add(s.t, int(s.rows))
		bitmap.add(b.t, int(b.rows))
		filter.add(f.t, int(f.rows))
	}
	return map[string]float64{
		"column.count_gbps":        count.gbps(),
		"column.sum_gbps":          sum.gbps(),
		"column.bitmap_gbps":       bitmap.gbps(),
		"column.filter_ns_per_row": filter.nsPerRow(),
	}
}
