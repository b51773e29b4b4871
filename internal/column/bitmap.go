package column

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Bitmap is the word-packed selection-vector form: bit p of the word
// array is set iff base position p qualifies. It is the dense
// counterpart of PosList — one bit per base position instead of 32 bits
// per qualifying position — so above ~3% selectivity it is smaller, and
// its intersection (the residual-conjunct filter of a conjunctive
// query) runs word at a time with zero-word skipping instead of probe
// by probe. Positions iterate in ascending order, which the
// materializing query forms exploit to skip their sort.
//
// A Bitmap is not safe for concurrent mutation except through
// OrRowsAtomic, the path the chunk-parallel CCGI select uses.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a zeroed bitmap covering positions [0, n).
func NewBitmap(n int) *Bitmap {
	b := &Bitmap{}
	b.Reset(n)
	return b
}

// Reset resizes the bitmap to cover positions [0, n) and clears every
// bit, reusing the backing array when it is large enough.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (b *Bitmap) Reset(n int) {
	nw := (n + 63) >> 6
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		clear(b.words)
	}
	b.n = n
}

// Len returns the number of positions the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks position p as qualifying. p must be < Len().
//
//holistic:noalloc
func (b *Bitmap) Set(p Pos) { b.words[p>>6] |= 1 << (p & 63) }

// Test reports whether position p qualifies.
//
//holistic:noalloc
func (b *Bitmap) Test(p Pos) bool {
	if int(p) >= b.n {
		return false
	}
	return b.words[p>>6]&(1<<(p&63)) != 0
}

// Count returns the number of qualifying positions: a popcount fold,
// the bitmap's count(*) with no materialization.
//
//holistic:noalloc
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any position qualifies, short-circuiting on the
// first non-zero word — the cheap emptiness probe the refine loop uses
// to stop touching data once a conjunction has gone dry.
//
//holistic:noalloc
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// And intersects b with o in place, word at a time; positions beyond
// o's universe are absent from o and therefore cleared.
//
//holistic:noalloc
func (b *Bitmap) And(o *Bitmap) {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &= o.words[i]
	}
	clear(b.words[n:])
}

// AndNot clears from b every position set in o, word at a time;
// positions beyond o's universe are unaffected.
//
//holistic:noalloc
func (b *Bitmap) AndNot(o *Bitmap) {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &^= o.words[i]
	}
}

// SetRange marks every position in [start, end): the selection vector of
// a contiguous qualifying window (a pre-sorted projection slice, or the
// all-rows universe of a grouped query without predicates), built word
// at a time.
//
//holistic:noalloc
func (b *Bitmap) SetRange(start, end int) {
	if start < 0 {
		start = 0
	}
	if end > b.n {
		end = b.n
	}
	if start >= end {
		return
	}
	first, last := start>>6, (end-1)>>6
	loMask := ^uint64(0) << uint(start&63)
	hiMask := ^uint64(0) >> uint(63-(end-1)&63)
	if first == last {
		b.words[first] |= loMask & hiMask
		return
	}
	b.words[first] |= loMask
	for wi := first + 1; wi < last; wi++ {
		b.words[wi] = ^uint64(0)
	}
	b.words[last] |= hiMask
}

// SetRows marks every row id in rows. All ids must be < Len().
//
//holistic:noalloc
func (b *Bitmap) SetRows(rows []uint32) {
	for _, r := range rows {
		b.words[r>>6] |= 1 << (r & 63)
	}
}

// SetRowsExtend is SetRows growing the bitmap to cover row ids at or
// beyond Len(). The adaptive select path streams rowids whose universe
// was sized before the select: a pending insert merged by a concurrent
// query can legitimately surface a row id assigned after the sizing,
// and must extend the bitmap instead of corrupting memory.
//
//holistic:noalloc
func (b *Bitmap) SetRowsExtend(rows []uint32) {
	for _, r := range rows {
		if int(r) >= b.n {
			b.extend(int(r) + 1)
		}
		b.words[r>>6] |= 1 << (r & 63)
	}
}

// extend grows the bitmap to cover [0, n) keeping existing bits.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (b *Bitmap) extend(n int) {
	nw := (n + 63) >> 6
	for len(b.words) < nw {
		b.words = append(b.words, 0)
	}
	b.n = n
}

// OrRowsAtomic marks every row id in rows shifted by off, with atomic
// word ORs so concurrent writers producing disjoint row ids (the CCGI
// chunks, whose position spans may share a boundary word) need no
// further synchronization.
//
//holistic:noalloc
func (b *Bitmap) OrRowsAtomic(rows []uint32, off uint32) {
	for _, r := range rows {
		p := r + off
		atomic.OrUint64(&b.words[p>>6], 1<<(p&63))
	}
}

// ClearFrom clears every position >= n without shrinking the bitmap:
// the presence filter against an attribute whose base array is shorter
// than the position universe (rows appended to other attributes only).
//
//holistic:noalloc
func (b *Bitmap) ClearFrom(n int) {
	if n < 0 {
		n = 0
	}
	if n >= b.n {
		return
	}
	wi := n >> 6
	if r := uint(n & 63); r != 0 {
		b.words[wi] &= (1 << r) - 1
		wi++
	}
	clear(b.words[wi:])
}

// AppendPositions appends the qualifying positions to dst in ascending
// order — the bitmap → position-list conversion performed once at the
// project/aggregate boundary.
//
//holistic:noalloc
func (b *Bitmap) AppendPositions(dst PosList) PosList {
	for wi, w := range b.words {
		base := Pos(wi << 6)
		for ; w != 0; w &= w - 1 {
			dst = append(dst, base+Pos(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// AppendPositionsWords is AppendPositions restricted to the words
// [fromWord, toWord): the chunked bitmap → position-list decode the
// grouped-aggregation kernels use to process a selection vector through
// a small pooled buffer (and parallel consumers use to split a bitmap
// into word-disjoint spans) without materializing the full list.
//
//holistic:noalloc
func (b *Bitmap) AppendPositionsWords(dst PosList, fromWord, toWord int) PosList {
	if fromWord < 0 {
		fromWord = 0
	}
	if toWord > len(b.words) {
		toWord = len(b.words)
	}
	for wi := fromWord; wi < toWord; wi++ {
		w := b.words[wi]
		base := Pos(wi << 6)
		for ; w != 0; w &= w - 1 {
			dst = append(dst, base+Pos(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// Words returns the number of 64-position words backing the bitmap —
// the unit chunked consumers split on.
func (b *Bitmap) Words() int { return len(b.words) }

// denseLanes is the per-word popcount at and above which the filter
// and sum kernels walk all 64 lanes in order and mask, rather than
// visiting set bit by set bit: on dense words the straight-line loop
// beats the dependent find-first-set chain.
const denseLanes = 32

// filterWord evaluates the range predicate for the lanes of one
// 64-position word and returns w intersected with the outcome. Lanes at
// or beyond len(vals) never qualify (mirroring FilterRows, which drops
// positions without a value). Dense words evaluate all 64 lanes and
// shift each predicate bit in at the top; sparse words visit set bits
// only and keep each one by masking it with the predicate bit.
//
//holistic:noalloc
func filterWord(vals []int64, base int, w uint64, ulo, span uint64) uint64 {
	end := len(vals) - base
	if end >= 64 && bits.OnesCount64(w) >= denseLanes {
		var m uint64
		for _, v := range vals[base : base+64] {
			m = m>>1 | inRange(v, ulo, span)<<63
		}
		return w & m
	}
	if end <= 0 {
		return 0
	}
	if end < 64 {
		w &= 1<<uint(end) - 1
	}
	var m uint64
	for t := w; t != 0; t &= t - 1 {
		j := bits.TrailingZeros64(t)
		m |= inRange(vals[base+j], ulo, span) << uint(j)
	}
	return m
}

// ScanRangeBitmap is the bitmap-producing select operator: it resets b
// to cover vals and sets bit p iff lo <= vals[p] < hi, built word at a
// time with branch-free lane evaluation.
//
//holistic:noalloc
func ScanRangeBitmap(vals []int64, lo, hi int64, b *Bitmap) {
	b.Reset(len(vals))
	if hi <= lo {
		return
	}
	scanWords(vals, lo, hi, b.words, 0, len(vals))
}

// scanWords fills the words covering positions [start, end); start must
// be 64-aligned so writers of adjacent spans touch disjoint words, and
// the caller must have rejected hi <= lo.
//
//holistic:noalloc
func scanWords(vals []int64, lo, hi int64, words []uint64, start, end int) {
	ulo, span := rangeBits(lo, hi)
	p := start
	for p < end {
		stop := (p | 63) + 1
		if stop > end {
			stop = end
		}
		var w uint64
		for _, v := range vals[p:stop] {
			w = w>>1 | inRange(v, ulo, span)<<63
		}
		words[p>>6] = w >> uint(64-(stop-p))
		p = stop
	}
}

// ParallelScanRangeBitmap is ScanRangeBitmap with the scan split across
// workers contiguous 64-aligned chunks, so every worker owns whole
// words and no write is shared.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelScanRangeBitmap(vals []int64, lo, hi int64, b *Bitmap, workers int) {
	if workers < 2 || len(vals) < 2*1024 {
		ScanRangeBitmap(vals, lo, hi, b)
		return
	}
	b.Reset(len(vals))
	if hi <= lo {
		return
	}
	chunk := ((len(vals)+workers-1)/workers + 63) &^ 63
	var wg sync.WaitGroup
	for start := 0; start < len(vals); start += chunk {
		end := start + chunk
		if end > len(vals) {
			end = len(vals)
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			scanWords(vals, lo, hi, b.words, start, end)
		}(start, end)
	}
	wg.Wait()
}

// FilterBitmap intersects b in place with the predicate lo <= vals[p] <
// hi: the residual-conjunct kernel on the bitmap representation. Zero
// words — already-disqualified regions — are skipped without touching
// the data.
//
//holistic:noalloc
func FilterBitmap(vals []int64, b *Bitmap, lo, hi int64) {
	if hi <= lo {
		clear(b.words)
		return
	}
	filterWords(vals, b.words, 0, lo, hi)
}

// filterWords filters the words (which cover positions starting at word
// index from) in place; the caller must have rejected hi <= lo.
//
//holistic:noalloc
func filterWords(vals []int64, words []uint64, from int, lo, hi int64) {
	ulo, span := rangeBits(lo, hi)
	for wi, w := range words {
		if w == 0 {
			continue
		}
		words[wi] = filterWord(vals, (from+wi)<<6, w, ulo, span)
	}
}

// ParallelFilterBitmap is FilterBitmap with the word array split across
// workers contiguous chunks; writes are word-disjoint by construction.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelFilterBitmap(vals []int64, b *Bitmap, lo, hi int64, workers int) {
	if workers < 2 || b.n < minParallelSel {
		FilterBitmap(vals, b, lo, hi)
		return
	}
	if hi <= lo {
		clear(b.words)
		return
	}
	chunk := (len(b.words) + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < len(b.words); start += chunk {
		end := start + chunk
		if end > len(b.words) {
			end = len(b.words)
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			filterWords(vals, b.words[start:end], start, lo, hi)
		}(start, end)
	}
	wg.Wait()
}

// FetchBitmapAppend appends vals at the qualifying positions to dst in
// ascending position order — the gather at the project boundary. Every
// set position must be < len(vals).
//
//holistic:noalloc
func FetchBitmapAppend(vals []int64, b *Bitmap, dst []int64) []int64 {
	for wi, w := range b.words {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			dst = append(dst, vals[base+bits.TrailingZeros64(w)])
		}
	}
	return dst
}

// SumBitmap folds sum(vals[p]) over the qualifying positions without
// materializing anything. Every set position must be < len(vals). Dense
// words add all 64 lanes, each masked by its bit, instead of walking
// the set bits.
//
//holistic:noalloc
func SumBitmap(vals []int64, b *Bitmap) int64 {
	var s int64
	for wi, w := range b.words {
		if w == 0 {
			continue
		}
		base := wi << 6
		if base+64 <= len(vals) && bits.OnesCount64(w) >= denseLanes {
			for _, v := range vals[base : base+64] {
				s += v & -int64(w&1)
				w >>= 1
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			s += vals[base+bits.TrailingZeros64(w)]
		}
	}
	return s
}

// MinMaxBitmap folds min/max of vals over the qualifying positions and
// reports how many qualified; mn/mx are meaningful only when n > 0.
// Every set position must be < len(vals).
//
//holistic:noalloc
func MinMaxBitmap(vals []int64, b *Bitmap) (mn, mx int64, n int) {
	for wi, w := range b.words {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			v := vals[base+bits.TrailingZeros64(w)]
			if n == 0 || v < mn {
				mn = v
			}
			if n == 0 || v > mx {
				mx = v
			}
			n++
		}
	}
	return mn, mx, n
}

// MinMaxBitmap folds min/max of the current values at the set positions;
// every set position must have a value (run PresentBitmap first).
//
//holistic:noalloc
func (w View) MinMaxBitmap(b *Bitmap) (mn, mx int64, n int) {
	if w.Plain() {
		return MinMaxBitmap(w.Base, b)
	}
	for wi, word := range b.words {
		base := Pos(wi << 6)
		for ; word != 0; word &= word - 1 {
			p := base + Pos(bits.TrailingZeros64(word))
			v, ok := w.At(p)
			if !ok {
				panic(fmt.Sprintf("column: MinMaxBitmap at row %d without a value", p))
			}
			if n == 0 || v < mn {
				mn = v
			}
			if n == 0 || v > mx {
				mx = v
			}
			n++
		}
	}
	return mn, mx, n
}

// FilterBitmap is the bitmap form of View.FilterRows: it clears from b
// every position whose current value is outside [lo, hi) (or that has
// no value), in place. Plain views run the word-parallel kernel;
// overlaid views probe set bit by set bit through At.
//
//holistic:noalloc
func (w View) FilterBitmap(b *Bitmap, lo, hi int64, workers int) {
	if w.Plain() {
		ParallelFilterBitmap(w.Base, b, lo, hi, workers)
		return
	}
	if hi <= lo {
		clear(b.words)
		return
	}
	ulo, span := rangeBits(lo, hi)
	for wi, word := range b.words {
		if word == 0 {
			continue
		}
		var m uint64
		base := Pos(wi << 6)
		for t := word; t != 0; t &= t - 1 {
			j := bits.TrailingZeros64(t)
			if v, ok := w.At(base + Pos(j)); ok && inRange(v, ulo, span) == 1 {
				m |= 1 << uint(j)
			}
		}
		b.words[wi] = m
	}
}

// PresentBitmap is the bitmap form of View.PresentRows: it clears from
// b every position without a value in this attribute, in place.
//
//holistic:noalloc
func (w View) PresentBitmap(b *Bitmap) {
	if w.Plain() {
		b.ClearFrom(len(w.Base))
		return
	}
	for wi, word := range b.words {
		if word == 0 {
			continue
		}
		var m uint64
		base := Pos(wi << 6)
		for t := word; t != 0; t &= t - 1 {
			j := bits.TrailingZeros64(t)
			if _, ok := w.At(base + Pos(j)); ok {
				m |= 1 << uint(j)
			}
		}
		b.words[wi] = m
	}
}

// SumBitmap folds sum of the current values at the set positions;
// every set position must have a value (run PresentBitmap first).
//
//holistic:noalloc
func (w View) SumBitmap(b *Bitmap) int64 {
	if w.Plain() {
		return SumBitmap(w.Base, b)
	}
	var s int64
	for wi, word := range b.words {
		base := Pos(wi << 6)
		for ; word != 0; word &= word - 1 {
			p := base + Pos(bits.TrailingZeros64(word))
			v, ok := w.At(p)
			if !ok {
				panic(fmt.Sprintf("column: SumBitmap at row %d without a value", p))
			}
			s += v
		}
	}
	return s
}

// FetchBitmap gathers the current values at the set positions in
// ascending position order; every set position must have a value.
//
//holistic:noalloc
func (w View) FetchBitmap(b *Bitmap, dst []int64) []int64 {
	if w.Plain() {
		return FetchBitmapAppend(w.Base, b, dst)
	}
	for wi, word := range b.words {
		base := Pos(wi << 6)
		for ; word != 0; word &= word - 1 {
			p := base + Pos(bits.TrailingZeros64(word))
			v, ok := w.At(p)
			if !ok {
				panic(fmt.Sprintf("column: FetchBitmap at row %d without a value", p))
			}
			dst = append(dst, v)
		}
	}
	return dst
}

// --- pooled scratch ---
//
// The steady-state query path recycles its intermediates so a query
// allocates nothing once the pools are warm: internal/query's runner
// pools whole per-query scratch structs (bitmap included), the
// parallel materializing kernels pool their per-worker output slices
// (workerLists, below), and external callers driving
// engine.BitmapSelector directly borrow bitmaps via GetBitmap /
// PutBitmap.

var bitmapPool = sync.Pool{New: func() any { return new(Bitmap) }}

// GetBitmap returns a pooled bitmap reset to cover [0, n).
//
//holistic:alloc-ok pool warm-up allocates the recycled object
func GetBitmap(n int) *Bitmap {
	b := bitmapPool.Get().(*Bitmap)
	b.Reset(n)
	return b
}

// PutBitmap recycles a bitmap obtained from GetBitmap. The caller must
// not retain it.
//
//holistic:noalloc
func PutBitmap(b *Bitmap) {
	if b != nil {
		bitmapPool.Put(b)
	}
}

// workerLists is the pooled per-worker output scratch of the parallel
// materializing kernels: each worker appends into its own retained
// slice, so the fan-out costs no allocations once warm.
type workerLists struct {
	lists []PosList
}

var workerListsPool = sync.Pool{New: func() any { return new(workerLists) }}

//holistic:alloc-ok pool warm-up allocates the recycled object
func getWorkerLists(workers int) *workerLists {
	p := workerListsPool.Get().(*workerLists)
	if cap(p.lists) < workers {
		p.lists = make([]PosList, workers)
	} else {
		p.lists = p.lists[:workers]
	}
	for i := range p.lists {
		p.lists[i] = p.lists[i][:0]
	}
	return p
}

//holistic:noalloc
func putWorkerLists(p *workerLists) { workerListsPool.Put(p) }
