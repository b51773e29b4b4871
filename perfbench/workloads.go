package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"holistic"
)

// Input generation. Every input the benchmark feeds the store is made
// here from --seed, so a change to the library's own generator
// (internal/workload) cannot change what the benchmark measures. Each
// workload is one process with one client goroutine in a closed loop:
// the next operation is sent only after the previous one answered.

type opKind uint8

const (
	opCount opKind = iota
	opSum
	opMinMax
	opRows
	opConjCount
	opConjSum
	opGroup
	opJoin
	opInsert
	opUpdate
	opDelete
	numOpKinds
)

// opNames names each kind as the store.<name>_p50_us per-layer metric
// does; both conjunctive forms are "conj".
var opNames = [numOpKinds]string{"count", "sum", "minmax", "rows", "conj", "conj", "group", "join", "insert", "update", "delete"}

func (k opKind) write() bool { return k >= opInsert }

// pred is the range conjunct lo <= attr < hi over a table's attribute
// index.
type pred struct {
	attr   int
	lo, hi int64
}

// op is one client request and the answer the oracle expects for it.
type op struct {
	kind     opKind
	preds    []pred // predicates on the workload's first table
	dimPreds []pred // join only: predicates on the dimension table
	attr     int    // conjunctive sum target; write attribute
	v, w     int64  // insert v, delete v, update v to w
	want     answer
}

// answer is the comparable shape of every result: counts, sums, extrema,
// and for grouped results the group count plus a fingerprint of the
// ordered (key, count, sum) table.
type answer struct {
	n      int64
	sum    int64
	mn, mx int64
	ok     bool
}

// table is one relation the benchmark loads into a store.
type table struct {
	name  string
	attrs []string
	cols  [][]int64
}

// workload is a generated input set: tables, the fixed operation
// sequence with its expected answers, and how the client issues it.
type workload struct {
	name string
	mode holistic.Mode
	// durable stores open with OpenStore and the default group-commit
	// WAL (one fsync per acknowledged write with a single client).
	durable bool
	think   time.Duration
	tables  []*table
	ops     []op
	// final holds, per attribute of the first table, the live count and
	// sum after every write: what a reopened store must still answer.
	final []answer
}

// spec sizes a workload. rate is the number of operations per second
// of measuring time, calibrated so a replay of the sequence takes about
// that long on a 2-vCPU Xeon; the sequence length, not the clock, ends
// a replay, so read_total_s sums a fixed sequence.
type spec struct {
	why   string
	rows  int
	rate  float64
	build func(s spec, r *rand.Rand, nops int) *workload
}

// specs lists the workloads. rows are the full-scale sizes; tests pass
// a shift that divides them.
var specs = map[string]spec{
	// The paper's scenario: cracking and the daemon do the work, the
	// think time is the idle CPU the daemon exists to use, and the
	// single-predicate API bypasses internal/query. 8 x 2^21 values
	// (128 MiB) exceed the 105 MiB L3.
	"explore": {
		why:   "analyst with think time: cracking plus daemon refinement on 8 attributes larger than L3",
		rows:  1 << 21,
		rate:  520,
		build: buildExplore,
	},
	// The planner, residual probes, grouping and join do the work, with
	// no idle gaps. Residual-only attributes are still admitted to the
	// daemon, so misdirected refinement shows in holistic.*.
	"analytics": {
		why:   "back-to-back conjunctive, grouped and join queries: planner, probes, groupby and join",
		rows:  1 << 21,
		rate:  280,
		build: buildAnalytics,
	},
	// The same cracking layer with writes beside reads (pending-update
	// merges) plus internal/durable, which no other workload touches.
	// 4 x 2^19 rather than 2 x 2^20: the read tail is the first cracks of
	// each attribute, and four of them make read_p99_us vary less with
	// the seed.
	"ingest": {
		why:   "durable store, 70% range reads and 30% insert/update/delete, then close and reopen",
		rows:  1 << 19,
		rate:  560,
		build: buildIngest,
	},
	// The column scan kernels do nearly all the work and cracking and
	// the daemon none: the bypass pair for explore. 4 x 2^20 values
	// (32 MiB) fit in L3.
	"scan": {
		why:   "no index: scan kernels over a 0.1%-90% selectivity sweep, data inside L3",
		rows:  1 << 20,
		rate:  180,
		build: buildScan,
	},
}

// genWorkload builds the named workload from seed. seconds sets the
// sequence length; shift divides the table sizes by 2^shift.
func genWorkload(name string, seed uint64, seconds float64, shift int) (*workload, error) {
	s, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	s.rows >>= shift
	nops := int(math.Ceil(s.rate * seconds))
	if nops < 1 {
		nops = 1
	}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	w := s.build(s, r, nops)
	w.name = name
	return w, nil
}

func uniformColumn(r *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = r.Int64N(domain)
	}
	return vals
}

// strata returns n draws in [0, 1), one from each of n equal strata, in
// seeded random order. A seed changes which operation gets which draw
// but hardly the set of draws, so the work a sequence holds, and with
// it every total and percentile, varies little from seed to seed.
func strata(r *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i, p := range r.Perm(n) {
		u[i] = (float64(p) + r.Float64()) / float64(n)
	}
	return u
}

// logUniform maps u in [0, 1) to a selectivity between lo and hi,
// uniform in log space so every decade is equally represented.
func logUniform(u, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, u)
}

// rangeOf returns a random [lo, hi) covering sel of the uniform domain
// [0, domain).
func rangeOf(r *rand.Rand, domain int64, sel float64) (int64, int64) {
	width := int64(sel * float64(domain))
	if width < 1 {
		width = 1
	}
	lo := r.Int64N(domain - width + 1)
	return lo, lo + width
}

// zipfPick maps u in [0, 1) to index i with probability proportional
// to 1/(i+1).
func zipfPick(u float64, cdf []float64) int {
	u *= cdf[len(cdf)-1]
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

const exploreDomain = 1 << 30

func buildExplore(s spec, r *rand.Rand, nops int) *workload {
	const attrs = 8
	t := &table{name: "explore", attrs: names("c", attrs)}
	for range attrs {
		t.cols = append(t.cols, uniformColumn(r, s.rows, exploreDomain))
	}
	or := newOracles(t, 0)
	cdf := make([]float64, attrs)
	acc := 0.0
	for i := range cdf {
		acc += 1 / float64(i+1)
		cdf[i] = acc
	}
	attrU, selU, kindU := strata(r, nops), strata(r, nops), strata(r, nops)
	ops := make([]op, nops)
	for i := range ops {
		a := zipfPick(attrU[i], cdf)
		lo, hi := rangeOf(r, exploreDomain, logUniform(selU[i], 0.001, 0.1))
		o := op{preds: []pred{{a, lo, hi}}}
		switch u := kindU[i]; {
		case u < 0.4:
			o.kind = opCount
		case u < 0.7:
			o.kind = opSum
		case u < 0.85:
			o.kind = opMinMax
		default:
			o.kind = opRows
		}
		o.want = or[a].single(o.kind, lo, hi)
		ops[i] = o
	}
	return &workload{mode: holistic.ModeHolistic, think: time.Millisecond, tables: []*table{t}, ops: ops}
}

// Analytics schema: fact(a, b, g, fk) and dim(dk, dv). g spans a domain
// far too wide for dense grouping (4096 keys spread over ~4M values);
// fk references dim's dense key dk.
const (
	factDomain = 1 << 20
	groupKeys  = 4096
	groupSpan  = 997
	dimDomain  = 1000
)

func buildAnalytics(s spec, r *rand.Rand, nops int) *workload {
	dimRows := s.rows >> 5
	fact := &table{name: "fact", attrs: []string{"a", "b", "g", "fk"}}
	fact.cols = [][]int64{
		uniformColumn(r, s.rows, factDomain),
		uniformColumn(r, s.rows, factDomain),
		make([]int64, s.rows),
		uniformColumn(r, s.rows, int64(dimRows)),
	}
	for i := range fact.cols[2] {
		fact.cols[2][i] = r.Int64N(groupKeys) * groupSpan
	}
	dim := &table{name: "dim", attrs: []string{"dk", "dv"}}
	dk := make([]int64, dimRows)
	for i, p := range r.Perm(dimRows) {
		dk[i] = int64(p)
	}
	dim.cols = [][]int64{dk, uniformColumn(r, dimRows, dimDomain)}
	or := newOracles(fact, 2) // every query has a conjunct on a and on b

	driveU, kindU := strata(r, nops), strata(r, nops)
	ops := make([]op, nops)
	for i := range ops {
		// The driving (most selective) conjunct sweeps from sparse to
		// dense across the bitmap crossover; the others are looser.
		drive := logUniform(driveU[i], 0.001, 0.25)
		loose := func() float64 { return drive + (1-drive)*r.Float64() }
		sa, sb := drive, loose()
		if r.IntN(2) == 0 {
			sa, sb = sb, sa
		}
		o := op{}
		alo, ahi := rangeOf(r, factDomain, sa)
		blo, bhi := rangeOf(r, factDomain, sb)
		o.preds = []pred{{0, alo, ahi}, {1, blo, bhi}}
		switch u := kindU[i]; {
		case u < 0.5:
			o.kind = opConjCount
		case u < 0.7:
			o.kind = opConjSum
			o.attr = 1
		case u < 0.85:
			o.kind = opGroup
		default:
			o.kind = opJoin
			lo, hi := rangeOf(r, dimDomain, 0.1+0.9*r.Float64())
			o.dimPreds = []pred{{1, lo, hi}}
		}
		if o.kind != opJoin && r.IntN(3) == 0 {
			// A third, residual-only conjunct on the group key or the
			// foreign key.
			if r.IntN(2) == 0 {
				lo, hi := rangeOf(r, groupKeys*groupSpan, loose())
				o.preds = append(o.preds, pred{2, lo, hi})
			} else {
				lo, hi := rangeOf(r, int64(dimRows), loose())
				o.preds = append(o.preds, pred{3, lo, hi})
			}
		}
		o.want = conjAnswer(fact, or, &o, dim)
		ops[i] = o
	}
	return &workload{mode: holistic.ModeHolistic, tables: []*table{fact, dim}, ops: ops}
}

const ingestDomain = 1 << 20

func buildIngest(s spec, r *rand.Rand, nops int) *workload {
	const attrs = 4
	t := &table{name: "ingest", attrs: names("v", attrs)}
	live := make([][]int64, attrs)
	fen := make([]*fenwick, attrs)
	for a := range attrs {
		col := uniformColumn(r, s.rows, ingestDomain)
		t.cols = append(t.cols, col)
		live[a] = append([]int64(nil), col...)
		fen[a] = newFenwick(ingestDomain, col)
	}
	selU, kindU := strata(r, nops), strata(r, nops)
	ops := make([]op, nops)
	for i := range ops {
		a := r.IntN(attrs)
		o := op{attr: a}
		if kindU[i] < 0.7 {
			lo, hi := rangeOf(r, ingestDomain, logUniform(selU[i], 0.001, 0.1))
			o.preds = []pred{{a, lo, hi}}
			o.kind = opCount
			if kindU[i] < 0.35 {
				o.kind = opSum
			}
			n, sum := fen[a].rangeQuery(lo, hi)
			o.want = answer{n: n}
			if o.kind == opSum {
				o.want = answer{sum: sum}
			}
			ops[i] = o
			continue
		}
		switch u := (kindU[i] - 0.7) / 0.3; {
		case u < 0.4:
			o.kind = opInsert
			o.v = r.Int64N(ingestDomain)
			live[a] = append(live[a], o.v)
			fen[a].add(o.v, 1)
		case u < 0.8:
			o.kind = opUpdate
			j := r.IntN(len(live[a]))
			o.v, o.w = live[a][j], r.Int64N(ingestDomain)
			live[a][j] = o.w
			fen[a].add(o.v, -1)
			fen[a].add(o.w, 1)
		default:
			o.kind = opDelete
			j := r.IntN(len(live[a]))
			o.v = live[a][j]
			live[a][j] = live[a][len(live[a])-1]
			live[a] = live[a][:len(live[a])-1]
			fen[a].add(o.v, -1)
		}
		ops[i] = o
	}
	w := &workload{mode: holistic.ModeHolistic, durable: true, tables: []*table{t}, ops: ops}
	for a := range attrs {
		n, sum := fen[a].rangeQuery(0, ingestDomain)
		w.final = append(w.final, answer{n: n, sum: sum})
	}
	return w
}

const scanDomain = 1 << 30

func buildScan(s spec, r *rand.Rand, nops int) *workload {
	const attrs = 4
	t := &table{name: "scan", attrs: names("s", attrs)}
	for range attrs {
		t.cols = append(t.cols, uniformColumn(r, s.rows, scanDomain))
	}
	or := newOracles(t, attrs)
	selU, sel2U, kindU := strata(r, nops), strata(r, nops), strata(r, nops)
	ops := make([]op, nops)
	for i := range ops {
		a := r.IntN(attrs)
		lo, hi := rangeOf(r, scanDomain, logUniform(selU[i], 0.001, 0.9))
		o := op{preds: []pred{{a, lo, hi}}, attr: a}
		conj := kindU[i] < 0.5
		if conj {
			b := (a + 1 + r.IntN(attrs-1)) % attrs
			lo, hi := rangeOf(r, scanDomain, logUniform(sel2U[i], 0.001, 0.9))
			o.preds = append(o.preds, pred{b, lo, hi})
		}
		switch {
		case conj && kindU[i] < 0.25:
			o.kind = opConjCount
			o.want = conjAnswer(t, or, &o, nil)
		case conj:
			o.kind = opConjSum
			o.want = conjAnswer(t, or, &o, nil)
		case kindU[i] < 0.75:
			o.kind = opCount
			o.want = or[a].single(opCount, lo, hi)
		default:
			o.kind = opSum
			o.want = or[a].single(opSum, lo, hi)
		}
		ops[i] = o
	}
	return &workload{mode: holistic.ModeScan, tables: []*table{t}, ops: ops}
}
