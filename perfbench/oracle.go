package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
)

// The oracle. Every expected answer is computed from the generated data
// before any store exists, outside every timed window:
//   - single-predicate answers from a sorted copy plus prefix sums;
//   - conjunctive, grouped and join answers by brute force over every
//     query, walking the rows of the most selective conjunct in that
//     attribute's value order, over copies of every column laid out in
//     that order, and checking the rest;
//   - under writes (ingest), from Fenwick trees over the value domain
//     that follow the live multiset operation by operation.

type oracle struct {
	sorted []int64
	prefix []int64 // prefix[i] = sum(sorted[:i])
	// cols holds every column of the table reordered by this attribute's
	// values, so a brute-force pass over a value range reads memory in
	// order; nil unless the attribute can drive a conjunctive answer.
	cols [][]int64
}

// permShift packs (value, row) into one uint64 for a single fast sort;
// values must stay below 2^(64-permShift) and rows below 2^permShift.
const permShift = 23

// newOracles indexes every column of t, two columns at a time. The
// first nDrive attributes get value-ordered copies of the whole table.
func newOracles(t *table, nDrive int) []*oracle {
	out := make([]*oracle, len(t.cols))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range t.cols {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			out[i] = newOracle(t, i, i < nDrive)
			<-sem
		}()
	}
	wg.Wait()
	return out
}

func newOracle(t *table, attr int, drives bool) *oracle {
	col := t.cols[attr]
	o := &oracle{}
	if drives {
		packed := make([]uint64, len(col))
		for i, v := range col {
			packed[i] = uint64(v)<<permShift | uint64(i)
		}
		slices.Sort(packed)
		o.cols = make([][]int64, len(t.cols))
		for c, src := range t.cols {
			dst := make([]int64, len(col))
			for i, p := range packed {
				dst[i] = src[p&(1<<permShift-1)]
			}
			o.cols[c] = dst
		}
		o.sorted = o.cols[attr]
	} else {
		o.sorted = slices.Clone(col)
		slices.Sort(o.sorted)
	}
	o.prefix = make([]int64, len(col)+1)
	for i, v := range o.sorted {
		o.prefix[i+1] = o.prefix[i] + v
	}
	return o
}

// span returns the sorted positions [i, j) of the values in [lo, hi).
func (o *oracle) span(lo, hi int64) (int, int) {
	i := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= lo })
	j := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= hi })
	if j < i {
		j = i
	}
	return i, j
}

func (o *oracle) single(kind opKind, lo, hi int64) answer {
	i, j := o.span(lo, hi)
	switch kind {
	case opSum:
		return answer{sum: o.prefix[j] - o.prefix[i]}
	case opMinMax:
		if i == j {
			return answer{}
		}
		return answer{mn: o.sorted[i], mx: o.sorted[j-1], ok: true}
	default: // count and rows
		return answer{n: int64(j - i)}
	}
}

// conjAnswer brute-forces a conjunctive, grouped or join operation over
// t (and dim for joins), walking the narrowest predicate that has
// value-ordered columns.
func conjAnswer(t *table, or []*oracle, o *op, dim *table) answer {
	var drive *oracle
	bi, bj := 0, len(t.cols[0])+1
	for _, p := range o.preds {
		if or[p.attr].cols == nil {
			continue
		}
		if i, j := or[p.attr].span(p.lo, p.hi); j-i < bj-bi {
			drive, bi, bj = or[p.attr], i, j
		}
	}
	var joinCnt []int64
	if o.kind == opJoin {
		joinCnt = make([]int64, len(dim.cols[0]))
		for row, key := range dim.cols[0] {
			if matches(dim.cols, o.dimPreds, row) {
				joinCnt[key]++
			}
		}
	}
	var ans answer
	groups := map[int64][2]int64{}
	cols := drive.cols
	for i := bi; i < bj; i++ {
		if !matches(cols, o.preds, i) {
			continue
		}
		switch o.kind {
		case opConjCount:
			ans.n++
		case opConjSum:
			ans.sum += cols[o.attr][i]
		case opGroup:
			g := groups[cols[2][i]]
			g[0]++
			g[1] += cols[1][i]
			groups[cols[2][i]] = g
		case opJoin:
			ans.n += joinCnt[cols[3][i]]
		}
	}
	if o.kind == opGroup {
		keys := make([]int64, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		counts := make([]int64, len(keys))
		sums := make([]int64, len(keys))
		for i, k := range keys {
			counts[i], sums[i] = groups[k][0], groups[k][1]
		}
		return groupPrint(keys, counts, sums)
	}
	return ans
}

func matches(cols [][]int64, preds []pred, i int) bool {
	for _, p := range preds {
		if v := cols[p.attr][i]; v < p.lo || v >= p.hi {
			return false
		}
	}
	return true
}

// groupPrint reduces an ordered group table to its group count and a
// fingerprint of every (key, count, sum) row in order.
func groupPrint(keys, counts, sums []int64) answer {
	h := uint64(14695981039346656037)
	for i := range keys {
		for _, v := range [3]int64{keys[i], counts[i], sums[i]} {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	return answer{n: int64(len(keys)), sum: int64(h)}
}

// fenwick keeps counts and sums of a multiset over [0, n) values.
type fenwick struct {
	cnt, sum []int64
}

func newFenwick(n int, vals []int64) *fenwick {
	f := &fenwick{cnt: make([]int64, n+1), sum: make([]int64, n+1)}
	for _, v := range vals {
		f.cnt[v+1]++
		f.sum[v+1] += v
	}
	for i := 1; i <= n; i++ {
		if j := i + i&-i; j <= n {
			f.cnt[j] += f.cnt[i]
			f.sum[j] += f.sum[i]
		}
	}
	return f
}

func (f *fenwick) add(v, d int64) {
	for i := int(v) + 1; i < len(f.cnt); i += i & -i {
		f.cnt[i] += d
		f.sum[i] += d * v
	}
}

// prefix returns the count and sum of the values below x.
func (f *fenwick) prefix(x int64) (n, s int64) {
	i := min(max(int(x), 0), len(f.cnt)-1)
	for ; i > 0; i -= i & -i {
		n += f.cnt[i]
		s += f.sum[i]
	}
	return n, s
}

func (f *fenwick) rangeQuery(lo, hi int64) (n, s int64) {
	n1, s1 := f.prefix(lo)
	n2, s2 := f.prefix(hi)
	return n2 - n1, s2 - s1
}
