package column

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func seq(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	return v
}

func TestColumnBasics(t *testing.T) {
	c := New("a", seq(10))
	if c.Name() != "a" {
		t.Errorf("Name() = %q, want a", c.Name())
	}
	if c.Len() != 10 {
		t.Errorf("Len() = %d, want 10", c.Len())
	}
	if c.At(7) != 7 {
		t.Errorf("At(7) = %d, want 7", c.At(7))
	}
	p := c.Append(99)
	if p != 10 || c.At(p) != 99 || c.Len() != 11 {
		t.Errorf("Append gave pos %d, len %d, val %d", p, c.Len(), c.At(p))
	}
}

func TestScanRange(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 3, 0}
	got := ScanRange(vals, 3, 8)
	want := PosList{0, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ScanRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanRange = %v, want %v", got, want)
		}
	}
}

func TestScanRangeEmptyAndFull(t *testing.T) {
	vals := seq(100)
	if got := ScanRange(vals, 200, 300); len(got) != 0 {
		t.Errorf("out-of-domain scan returned %d positions", len(got))
	}
	if got := ScanRange(vals, 50, 50); len(got) != 0 {
		t.Errorf("empty range scan returned %d positions", len(got))
	}
	if got := ScanRange(vals, 0, 100); len(got) != 100 {
		t.Errorf("full scan returned %d positions, want 100", len(got))
	}
}

func TestCountAndSumRange(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 3, 0}
	if n := CountRange(vals, 3, 8); n != 4 {
		t.Errorf("CountRange = %d, want 4", n)
	}
	if s := SumRange(vals, 3, 8); s != 5+3+7+3 {
		t.Errorf("SumRange = %d, want 18", s)
	}
}

func TestParallelKernelsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		lo, hi := int64(100), int64(700)
		if got, want := ParallelCountRange(vals, lo, hi, workers), CountRange(vals, lo, hi); got != want {
			t.Errorf("workers=%d: ParallelCountRange = %d, want %d", workers, got, want)
		}
		if got, want := ParallelSumRange(vals, lo, hi, workers), SumRange(vals, lo, hi); got != want {
			t.Errorf("workers=%d: ParallelSumRange = %d, want %d", workers, got, want)
		}
		got, want := ParallelScanRange(vals, lo, hi, workers), ScanRange(vals, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: ParallelScanRange len = %d, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: position %d differs: %d vs %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestParallelKernelsSmallInput(t *testing.T) {
	vals := []int64{4, 2, 9}
	if n := ParallelCountRange(vals, 0, 5, 8); n != 2 {
		t.Errorf("ParallelCountRange on tiny input = %d, want 2", n)
	}
	if got := ParallelScanRange(vals, 0, 5, 8); len(got) != 2 {
		t.Errorf("ParallelScanRange on tiny input = %v", got)
	}
}

func TestProject(t *testing.T) {
	src := []int64{10, 20, 30, 40}
	out := Project(src, PosList{3, 0, 2})
	want := []int64{40, 10, 30}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Project = %v, want %v", out, want)
		}
	}
	if len(Project(src, nil)) != 0 {
		t.Error("Project with empty selection returned values")
	}
}

func TestQuickScanVsCount(t *testing.T) {
	check := func(vals []int64, lo, hi int64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		return len(ScanRange(vals, lo, hi)) == CountRange(vals, lo, hi)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParallelEqualsSequential(t *testing.T) {
	check := func(vals []int64, lo, hi int64, workers uint8) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		w := int(workers%8) + 1
		return ParallelCountRange(vals, lo, hi, w) == CountRange(vals, lo, hi) &&
			ParallelSumRange(vals, lo, hi, w) == SumRange(vals, lo, hi)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Encode("RAIL")
	b := d.Encode("SHIP")
	if a == b {
		t.Fatal("distinct strings got the same code")
	}
	if again := d.Encode("RAIL"); again != a {
		t.Errorf("re-encode changed code: %d vs %d", again, a)
	}
	if d.Decode(a) != "RAIL" || d.Decode(b) != "SHIP" {
		t.Error("Decode did not round-trip")
	}
	if d.Card() != 2 {
		t.Errorf("Card() = %d, want 2", d.Card())
	}
	if code, ok := d.Lookup("SHIP"); !ok || code != b {
		t.Errorf("Lookup(SHIP) = %d,%v; want %d,true", code, ok, b)
	}
	if _, ok := d.Lookup("AIR"); ok {
		t.Error("Lookup reported ok for absent string")
	}
	if got := d.Decode(99); got != "<bad code 99>" {
		t.Errorf("Decode(99) = %q", got)
	}
}

func TestDictConcurrentEncode(t *testing.T) {
	d := NewDict()
	done := make(chan map[string]int64, 8)
	words := []string{"a", "b", "c", "d", "e"}
	for g := 0; g < 8; g++ {
		go func() {
			local := map[string]int64{}
			for i := 0; i < 200; i++ {
				w := words[i%len(words)]
				local[w] = d.Encode(w)
			}
			done <- local
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		other := <-done
		for w, code := range first {
			if other[w] != code {
				t.Fatalf("goroutines disagree on code for %q: %d vs %d", w, code, other[w])
			}
		}
	}
	if d.Card() != len(words) {
		t.Errorf("Card() = %d, want %d", d.Card(), len(words))
	}
}

// Package-level sinks keep the benchmarked kernels' results live, so the
// compiler cannot drop the calls.
var (
	sinkInt   int
	sinkInt64 int64
	sinkPos   PosList
)

// BenchmarkRangeKernels sweeps every range kernel over a 2^20-value
// column (8 MiB) at 0.1–90% selectivity. Bounds are drawn per iteration
// from a seeded RNG, so the compiler sees no constant predicate and the
// branch predictor sees a fresh one every call. The filter kernels
// (AppendFilterRows, FilterBitmap) refine a fixed 40%-dense driving
// selection on a second column, the dense 2-conjunct path; SumBitmap
// folds one of eight bitmaps of the swept selectivity, picked by the
// drawn bound. b.SetBytes counts 8 bytes per value the kernel covers:
// the column for scans and bitmap kernels, the candidate list for
// AppendFilterRows.
func BenchmarkRangeKernels(b *testing.B) {
	const (
		n      = 1 << 20
		domain = 1 << 30
	)
	vals := randVals(n, domain, 1)
	other := randVals(n, domain, 2)
	cand := ScanRange(other, 0, domain/5*2)
	drv := NewBitmap(0)
	ScanRangeBitmap(other, 0, domain/5*2, drv)

	type kernel struct {
		name  string
		bytes int
		run   func(lo, hi int64)
	}
	var buf PosList
	bm := NewBitmap(n)
	var sumMaps []*Bitmap // SumBitmap inputs at the current selectivity
	kernels := []kernel{
		{"CountRange", n, func(lo, hi int64) { sinkInt += CountRange(vals, lo, hi) }},
		{"SumRange", n, func(lo, hi int64) { sinkInt64 += SumRange(vals, lo, hi) }},
		{"MinMaxRange", n, func(lo, hi int64) {
			mn, mx, c := MinMaxRange(vals, lo, hi)
			sinkInt64 += mn ^ mx
			sinkInt += c
		}},
		{"ScanRange", n, func(lo, hi int64) { sinkPos = ScanRange(vals, lo, hi) }},
		{"AppendFilterRows", len(cand), func(lo, hi int64) {
			buf = AppendFilterRows(buf[:0], vals, cand, lo, hi)
			sinkInt += len(buf)
		}},
		{"ScanRangeBitmap", n, func(lo, hi int64) {
			ScanRangeBitmap(vals, lo, hi, bm)
			sinkInt += int(bm.words[len(bm.words)/2])
		}},
		{"FilterBitmap", n, func(lo, hi int64) {
			bm.Reset(n)
			copy(bm.words, drv.words)
			FilterBitmap(vals, bm, lo, hi)
			sinkInt += int(bm.words[len(bm.words)/2])
		}},
		{"SumBitmap", n, func(lo, _ int64) {
			sinkInt64 += SumBitmap(vals, sumMaps[lo%int64(len(sumMaps))])
		}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			for _, sel := range []float64{0.001, 0.01, 0.10, 0.25, 0.50, 0.90} {
				width := int64(sel * domain)
				b.Run(fmt.Sprintf("sel=%g%%", sel*100), func(b *testing.B) {
					rng := rand.New(rand.NewSource(7))
					if k.name == "SumBitmap" {
						sumMaps = sumMaps[:0]
						for i := 0; i < 8; i++ {
							lo := rng.Int63n(domain - width)
							m := NewBitmap(0)
							ScanRangeBitmap(vals, lo, lo+width, m)
							sumMaps = append(sumMaps, m)
						}
					}
					b.SetBytes(int64(k.bytes) * 8)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						lo := rng.Int63n(domain - width)
						k.run(lo, lo+width)
					}
				})
			}
		})
	}
}

func TestFilterRows(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 2}
	sel := PosList{0, 2, 3, 5, 9} // 9 is out of range and must be dropped
	got := FilterRows(vals, sel, 3, 9)
	want := PosList{0, 3}
	if len(got) != len(want) {
		t.Fatalf("FilterRows = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("FilterRows = %v, want %v", got, want)
		}
	}
}

func TestParallelFilterAndFetchMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 20)
	}
	sel := make(PosList, 0, len(vals))
	for i := 0; i < len(vals); i += 2 {
		sel = append(sel, Pos(i))
	}
	lo, hi := int64(1<<18), int64(1<<19)
	seqF := FilterRows(vals, sel, lo, hi)
	parF := ParallelFilterRows(vals, sel, lo, hi, 4)
	if len(seqF) != len(parF) {
		t.Fatalf("parallel filter length %d, sequential %d", len(parF), len(seqF))
	}
	for i := range seqF {
		if seqF[i] != parF[i] {
			t.Fatalf("filter mismatch at %d: %d vs %d", i, parF[i], seqF[i])
		}
	}
	seqG := FetchRows(vals, seqF)
	parG := ParallelFetchRows(vals, seqF, 4)
	for i := range seqG {
		if seqG[i] != parG[i] {
			t.Fatalf("fetch mismatch at %d: %d vs %d", i, parG[i], seqG[i])
		}
	}
}

func TestViewOverlay(t *testing.T) {
	w := View{
		Base:    []int64{10, 20, 30, 40},
		Tail:    []int64{50, 60},
		Deleted: map[Pos]struct{}{1: {}, 4: {}}, // one base row, one tail row
		Updated: map[Pos]int64{2: 35},
	}
	cases := []struct {
		p  Pos
		v  int64
		ok bool
	}{
		{0, 10, true},
		{1, 0, false}, // deleted
		{2, 35, true}, // updated
		{3, 40, true},
		{4, 0, false}, // deleted tail row
		{5, 60, true}, // tail
		{6, 0, false}, // beyond tail
	}
	for _, c := range cases {
		v, ok := w.At(c.p)
		if ok != c.ok || (ok && v != c.v) {
			t.Errorf("At(%d) = (%d,%v), want (%d,%v)", c.p, v, ok, c.v, c.ok)
		}
	}

	sel := PosList{0, 1, 2, 3, 4, 5, 6}
	got := w.FilterRows(sel, 30, 61, 2)
	want := PosList{2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("View.FilterRows = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("View.FilterRows = %v, want %v", got, want)
		}
	}

	present := w.PresentRows(sel)
	wantP := PosList{0, 2, 3, 5}
	if len(present) != len(wantP) {
		t.Fatalf("View.PresentRows = %v, want %v", present, wantP)
	}
	vals := w.FetchRows(present, 2)
	wantV := []int64{10, 35, 40, 60}
	for i := range vals {
		if vals[i] != wantV[i] {
			t.Fatalf("View.FetchRows = %v, want %v", vals, wantV)
		}
	}
}

func TestPlainViewFastPaths(t *testing.T) {
	w := View{Base: []int64{1, 2, 3}}
	if !w.Plain() {
		t.Fatal("base-only view is not Plain")
	}
	sel := PosList{0, 1, 2, 3} // 3 beyond base: dropped everywhere
	if got := w.FilterRows(sel, 2, 4, 1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("plain FilterRows = %v", got)
	}
	if got := w.PresentRows(sel); len(got) != 3 {
		t.Fatalf("plain PresentRows = %v", got)
	}
	inRange := PosList{0, 2}
	if got := w.PresentRows(inRange); len(got) != 2 {
		t.Fatalf("plain PresentRows (all in range) = %v", got)
	}
}
