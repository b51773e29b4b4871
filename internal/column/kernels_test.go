package column

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The range kernels evaluate lo <= v < hi as one unsigned compare after a
// sign bias, taking the outcome from a subtraction borrow. These tests
// hold every kernel, sequential and parallel, to the plain two-compare
// predicate at the edges of that trick: the extreme int64 bounds, empty
// and inverted ranges, values on either side of each bound, word-boundary
// lengths and probe positions past the end of the column.

func refIn(v, lo, hi int64) bool { return v >= lo && v < hi }

func refScan(vals []int64, lo, hi int64) PosList {
	out := PosList{}
	for i, v := range vals {
		if refIn(v, lo, hi) {
			out = append(out, Pos(i))
		}
	}
	return out
}

func refFilter(vals []int64, sel PosList, lo, hi int64) PosList {
	out := PosList{}
	for _, p := range sel {
		if int(p) < len(vals) && refIn(vals[p], lo, hi) {
			out = append(out, p)
		}
	}
	return out
}

func refMinMax(vals []int64, lo, hi int64) (mn, mx int64, n int) {
	for _, v := range vals {
		if !refIn(v, lo, hi) {
			continue
		}
		if n == 0 || v < mn {
			mn = v
		}
		if n == 0 || v > mx {
			mx = v
		}
		n++
	}
	return mn, mx, n
}

func refIndexEq(vals []int64, v int64) int {
	for i, x := range vals {
		if x == v {
			return i
		}
	}
	return -1
}

func checkIndexEq(t *testing.T, vals []int64, v int64) {
	t.Helper()
	if got, want := IndexEq(vals, v), refIndexEq(vals, v); got != want {
		t.Fatalf("IndexEq(len=%d, v=%d) = %d, want %d", len(vals), v, got, want)
	}
}

// checkRangeKernels compares every range kernel against the reference
// on one input: vals, the candidate positions sel (any order, possibly
// at or beyond len(vals)) and the bounds.
func checkRangeKernels(t *testing.T, vals []int64, sel PosList, lo, hi int64) {
	t.Helper()
	fail := func(kernel string, got, want any) {
		t.Helper()
		t.Fatalf("%s(len=%d, lo=%d, hi=%d) = %v, want %v", kernel, len(vals), lo, hi, got, want)
	}
	want := refScan(vals, lo, hi)
	var wantSum int64
	for _, p := range want {
		wantSum += vals[p]
	}
	wantMn, wantMx, wantN := refMinMax(vals, lo, hi)
	wantF := refFilter(vals, sel, lo, hi)

	if got := CountRange(vals, lo, hi); got != len(want) {
		fail("CountRange", got, len(want))
	}
	if got := SumRange(vals, lo, hi); got != wantSum {
		fail("SumRange", got, wantSum)
	}
	if mn, mx, n := MinMaxRange(vals, lo, hi); mn != wantMn || mx != wantMx || n != wantN {
		fail("MinMaxRange", [3]int64{mn, mx, int64(n)}, [3]int64{wantMn, wantMx, int64(wantN)})
	}
	if got := ScanRange(vals, lo, hi); !posListEqual(got, want) {
		fail("ScanRange", got, want)
	}
	if got := FilterRows(vals, sel, lo, hi); !posListEqual(got, wantF) {
		fail("FilterRows", got, wantF)
	}
	inPlace := slices.Clone(sel)
	if got := FilterRowsInPlace(vals, inPlace, lo, hi); !posListEqual(got, wantF) {
		fail("FilterRowsInPlace", got, wantF)
	}
	aliased := slices.Clone(sel)
	if got := AppendFilterRows(aliased[:0], vals, aliased, lo, hi); !posListEqual(got, wantF) {
		fail("AppendFilterRows(dst aliasing sel)", got, wantF)
	}
	prefix := PosList{7, 8, 9}
	wantP := append(slices.Clone(prefix), wantF...)
	if got := AppendFilterRows(slices.Clip(prefix), vals, sel, lo, hi); !posListEqual(got, wantP) {
		fail("AppendFilterRows(non-empty dst)", got, wantP)
	}

	bm := NewBitmap(0)
	ScanRangeBitmap(vals, lo, hi, bm)
	if got := bm.AppendPositions(nil); !posListEqual(got, want) {
		fail("ScanRangeBitmap", got, want)
	}
	if got := SumBitmap(vals, bm); got != wantSum {
		fail("SumBitmap", got, wantSum)
	}
	// The filter bitmap holds the candidates in a universe reaching 70
	// positions past the column, whose lanes have no value and must clear.
	universe := len(vals) + 70
	var sorted PosList
	for _, p := range slices.Compact(slices.Sorted(slices.Values(sel))) {
		if int(p) < universe {
			sorted = append(sorted, p)
		}
	}
	fb := NewBitmap(universe)
	fb.SetRows(sorted)
	wantFB := refFilter(vals, sorted, lo, hi)
	FilterBitmap(vals, fb, lo, hi)
	if got := fb.AppendPositions(nil); !posListEqual(got, wantFB) {
		fail("FilterBitmap", got, wantFB)
	}
	overlay := View{Base: vals, Tail: []int64{lo}, Deleted: map[Pos]struct{}{}}
	if got := overlay.FilterRows(sel, lo, hi, 1); !posListEqual(got, refFilter(append(slices.Clip(vals), lo), sel, lo, hi)) {
		fail("View.FilterRows(overlay)", got, "reference")
	}

	for _, workers := range []int{1, 2, 3} {
		if got := ParallelCountRange(vals, lo, hi, workers); got != len(want) {
			fail("ParallelCountRange", got, len(want))
		}
		if got := ParallelSumRange(vals, lo, hi, workers); got != wantSum {
			fail("ParallelSumRange", got, wantSum)
		}
		if mn, mx, n := ParallelMinMaxRange(vals, lo, hi, workers); mn != wantMn || mx != wantMx || n != wantN {
			fail("ParallelMinMaxRange", [3]int64{mn, mx, int64(n)}, [3]int64{wantMn, wantMx, int64(wantN)})
		}
		if got := ParallelScanRange(vals, lo, hi, workers); !posListEqual(got, want) {
			fail("ParallelScanRange", got, want)
		}
		if got := ParallelFilterRows(vals, sel, lo, hi, workers); !posListEqual(got, wantF) {
			fail("ParallelFilterRows", got, wantF)
		}
		inPlace := slices.Clone(sel)
		if got := ParallelFilterRowsInPlace(vals, inPlace, lo, hi, workers); !posListEqual(got, wantF) {
			fail("ParallelFilterRowsInPlace", got, wantF)
		}
		ParallelScanRangeBitmap(vals, lo, hi, bm, workers)
		if got := bm.AppendPositions(nil); !posListEqual(got, want) {
			fail("ParallelScanRangeBitmap", got, want)
		}
		fb.Reset(universe)
		fb.SetRows(sorted)
		ParallelFilterBitmap(vals, fb, lo, hi, workers)
		if got := fb.AppendPositions(nil); !posListEqual(got, wantFB) {
			fail("ParallelFilterBitmap", got, wantFB)
		}
	}
}

// edgeVals fills n values from the ones that sit on the edges of the
// predicate — the int64 extremes, lo, hi-1, hi and their neighbours —
// mixed with random ones; dense picks the share of edge values.
func edgeVals(rng *rand.Rand, n int, lo, hi int64, dense bool) []int64 {
	edges := []int64{math.MinInt64, math.MaxInt64, lo, hi - 1, hi, lo - 1, lo + 1, 0, -1}
	vals := make([]int64, n)
	for i := range vals {
		switch {
		case dense || rng.Intn(4) == 0:
			vals[i] = edges[rng.Intn(len(edges))]
		case rng.Intn(2) == 0:
			vals[i] = int64(rng.Uint64())
		default:
			vals[i] = lo + rng.Int63n(1000) - 500
		}
	}
	return vals
}

// edgeSel draws candidate positions in [0, n+70), in random order with
// repeats, plus positions exactly at and far beyond the column's end.
func edgeSel(rng *rand.Rand, n int) PosList {
	sel := PosList{Pos(n), Pos(n + 1), math.MaxUint32}
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			sel = append(sel, Pos(rng.Intn(n+70)))
		}
	}
	rng.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
	return sel
}

func TestRangeKernelsDifferential(t *testing.T) {
	bounds := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64 + 1},
		{math.MaxInt64 - 1, math.MaxInt64},
		{math.MinInt64, 0},
		{0, math.MaxInt64},
		{-5, 5},
		{100, 100}, // hi == lo
		{100, 99},  // hi < lo
		{math.MaxInt64, math.MinInt64},
		{1 << 40, 1<<40 + 1},
	}
	// 70001 candidates and values reach the parallel fan-out thresholds.
	lens := []int{0, 1, 63, 64, 65, 1023, 1024, 1025, 70001}
	rng := rand.New(rand.NewSource(11))
	for _, b := range bounds {
		for _, n := range lens {
			for _, dense := range []bool{false, true} {
				if n == 70001 && dense {
					continue
				}
				checkRangeKernels(t, edgeVals(rng, n, b[0], b[1], dense), edgeSel(rng, n), b[0], b[1])
			}
		}
	}
	// IndexEq: the value wherever edgeVals happens to put it, then absent,
	// then only at the last and only at the first position.
	for _, n := range []int{0, 1, 63, 64, 65, 1025} {
		for _, v := range []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 40} {
			vals := edgeVals(rng, n, v, v+1, false)
			checkIndexEq(t, vals, v)
			absent := slices.Clone(vals)
			for i := range absent {
				if absent[i] == v {
					absent[i] = v ^ 1
				}
			}
			checkIndexEq(t, absent, v)
			if n == 0 {
				continue
			}
			last := slices.Clone(absent)
			last[n-1] = v
			checkIndexEq(t, last, v)
			absent[0] = v
			checkIndexEq(t, absent, v)
		}
	}
}

// TestRangeKernelsAllocs pins the allocation behaviour of the sequential
// kernels: the aggregates and the in-place filter allocate nothing, and
// ScanRange allocates no more often than an append loop into the same
// initial capacity would.
func TestRangeKernelsAllocs(t *testing.T) {
	const domain = 1 << 20
	vals := randVals(1<<14, domain, 3)
	sel := ScanRange(vals, 0, domain/2)
	work := make(PosList, len(sel))
	for _, c := range []struct {
		name string
		run  func(lo, hi int64)
	}{
		{"CountRange", func(lo, hi int64) { sinkInt = CountRange(vals, lo, hi) }},
		{"SumRange", func(lo, hi int64) { sinkInt64 = SumRange(vals, lo, hi) }},
		{"MinMaxRange", func(lo, hi int64) { _, _, sinkInt = MinMaxRange(vals, lo, hi) }},
		{"FilterRowsInPlace", func(lo, hi int64) {
			copy(work, sel)
			sinkInt = len(FilterRowsInPlace(vals, work, lo, hi))
		}},
	} {
		if allocs := testing.AllocsPerRun(50, func() { c.run(domain/4, domain/4*3) }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
	for _, frac := range []float64{0, 0.001, 0.1, 0.125, 0.3, 0.5, 0.9, 1} {
		lo, hi := int64(0), int64(frac*domain)
		got := testing.AllocsPerRun(20, func() { sinkPos = ScanRange(vals, lo, hi) })
		want := testing.AllocsPerRun(20, func() {
			out := make(PosList, 0, len(vals)/8)
			for i, v := range vals {
				if refIn(v, lo, hi) {
					out = append(out, Pos(i))
				}
			}
			sinkPos = out
		})
		if got > want {
			t.Errorf("ScanRange at %g%% allocates %.1f times per call, an append loop %.1f", frac*100, got, want)
		}
	}
}

// FuzzRangeKernels holds every kernel to the reference on arbitrary
// values (8 little-endian bytes each), bounds and candidate positions;
// IndexEq searches for each bound.
// Each value's lowest bit decides whether its position is a candidate;
// two positions past the end are always candidates. The seed corpus
// lives in testdata/fuzz/FuzzRangeKernels.
func FuzzRangeKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64) {
		vals := make([]int64, len(data)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		sel := PosList{Pos(len(vals)), Pos(len(vals) + 64)}
		for i, v := range vals {
			if v&1 == 0 {
				sel = append(sel, Pos(i))
			}
		}
		checkRangeKernels(t, vals, sel, lo, hi)
		checkIndexEq(t, vals, lo)
		checkIndexEq(t, vals, hi)
	})
}
