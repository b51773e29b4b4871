package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"holistic"
	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	holisticd "holistic/internal/holistic"
	"holistic/internal/obs"
	"holistic/internal/obs/econ"
	"holistic/internal/obs/flight"
	"holistic/internal/query"
	"holistic/internal/stats"
)

// The traced run. Spans are recorded from the benchmark's own files,
// around the calls into each layer: op.* around each operation,
// query.* around each query.Runner call, engine.* around each call the
// runner (or, for single-predicate operations, the benchmark itself)
// makes into the executor. Spans inside the library are out of scope.

// span is one timed call; times are ns since the tracer started. Spans
// of one operation share its query id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. It assumes one client goroutine: the
// query runner calls the executor on the caller's goroutine, so open
// spans nest as a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	query int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), ID: id, Parent: parent, Query: t.query})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations of the spans whose name is in names.
func (t *tracer) durations(names ...string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if slices.Contains(names, s.Name) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for each span named in names, its duration minus
// the time its direct children cover.
func (t *tracer) selfTimes(names ...string) []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if slices.Contains(names, s.Name) {
			out = append(out, s.dur()-child[i])
		}
	}
	return out
}

func (t *tracer) count(prefix string) int {
	n := 0
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			n++
		}
	}
	return n
}

// Engine span names; the select forms are the ones engine.select_us
// summarizes.
const (
	spanCount        = "engine.Count"
	spanSum          = "engine.Sum"
	spanMinMax       = "engine.MinMax"
	spanSelectRows   = "engine.SelectRows"
	spanSelectBitmap = "engine.SelectBitmap"
	spanWalk         = "engine.WalkKeyOrder"
)

var selectSpans = []string{spanCount, spanSum, spanMinMax, spanSelectRows, spanSelectBitmap, spanWalk}

// tracedExec forwards the Executor core to inner with a span per call.
type tracedExec struct {
	inner engine.Executor
	tr    *tracer
}

func (e *tracedExec) Label() string { return e.inner.Label() }
func (e *tracedExec) Close()        { e.inner.Close() }

func (e *tracedExec) Count(attr string, lo, hi int64) (int, error) {
	id := e.tr.begin(spanCount)
	defer e.tr.end(id)
	return e.inner.Count(attr, lo, hi)
}

func (e *tracedExec) Sum(attr string, lo, hi int64) (int64, error) {
	id := e.tr.begin(spanSum)
	defer e.tr.end(id)
	return e.inner.Sum(attr, lo, hi)
}

func (e *tracedExec) MinMax(attr string, lo, hi int64) (int64, int64, bool, error) {
	id := e.tr.begin(spanMinMax)
	defer e.tr.end(id)
	return e.inner.MinMax(attr, lo, hi)
}

func (e *tracedExec) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	id := e.tr.begin(spanSelectRows)
	defer e.tr.end(id)
	return e.inner.SelectRows(attr, lo, hi)
}

// bitmapExec adds BitmapSelector: the capability set of the scan
// executor.
type bitmapExec struct{ *tracedExec }

func (e bitmapExec) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	id := e.tr.begin(spanSelectBitmap)
	defer e.tr.end(id)
	return e.inner.(engine.BitmapSelector).SelectBitmap(attr, lo, hi, bm)
}

// fullExec adds every capability the planner probes for: the set of
// the holistic executor.
type fullExec struct{ bitmapExec }

func (e fullExec) View(attr string) (column.View, error) {
	id := e.tr.begin("engine.View")
	defer e.tr.end(id)
	return e.inner.(engine.Viewer).View(attr)
}

func (e fullExec) EstimateCount(attr string, lo, hi int64) (float64, bool, bool) {
	id := e.tr.begin("engine.EstimateCount")
	defer e.tr.end(id)
	return e.inner.(engine.CardEstimator).EstimateCount(attr, lo, hi)
}

func (e fullExec) KeyOrderSpan(attr string) (float64, bool) {
	id := e.tr.begin("engine.KeyOrderSpan")
	defer e.tr.end(id)
	return e.inner.(engine.KeyOrderWalker).KeyOrderSpan(attr)
}

func (e fullExec) WalkKeyOrder(attr string, fn func(vals []int64, rows []uint32)) (bool, error) {
	id := e.tr.begin(spanWalk)
	defer e.tr.end(id)
	return e.inner.(engine.KeyOrderWalker).WalkKeyOrder(attr, fn)
}

func (e fullExec) NotePredicate(attr string) error {
	id := e.tr.begin("engine.NotePredicate")
	defer e.tr.end(id)
	return e.inner.(engine.PredicateSink).NotePredicate(attr)
}

func (e fullExec) NotePredicateSpan(attr string, lo, hi int64) error {
	id := e.tr.begin("engine.NotePredicateSpan")
	defer e.tr.end(id)
	return e.inner.(engine.PredicateSpanSink).NotePredicateSpan(attr, lo, hi)
}

func (e fullExec) Insert(attr string, v int64) error {
	id := e.tr.begin("engine.Insert")
	defer e.tr.end(id)
	return e.inner.(engine.Inserter).Insert(attr, v)
}

func (e fullExec) Delete(attr string, v int64) error {
	id := e.tr.begin("engine.Delete")
	defer e.tr.end(id)
	return e.inner.(engine.Deleter).Delete(attr, v)
}

func (e fullExec) Update(attr string, oldV, newV int64) error {
	id := e.tr.begin("engine.Update")
	defer e.tr.end(id)
	return e.inner.(engine.Updater).Update(attr, oldV, newV)
}

// capabilities lists the optional interfaces x implements: the ones the
// planner and the store probe by type assertion.
func capabilities(x engine.Executor) []string {
	var out []string
	add := func(name string, ok bool) {
		if ok {
			out = append(out, name)
		}
	}
	_, ok := x.(engine.Viewer)
	add("Viewer", ok)
	_, ok = x.(engine.CardEstimator)
	add("CardEstimator", ok)
	_, ok = x.(engine.BitmapSelector)
	add("BitmapSelector", ok)
	_, ok = x.(engine.KeyOrderWalker)
	add("KeyOrderWalker", ok)
	_, ok = x.(engine.PredicateSink)
	add("PredicateSink", ok)
	_, ok = x.(engine.PredicateSpanSink)
	add("PredicateSpanSink", ok)
	_, ok = x.(engine.Inserter)
	add("Inserter", ok)
	_, ok = x.(engine.Deleter)
	add("Deleter", ok)
	_, ok = x.(engine.Updater)
	add("Updater", ok)
	return out
}

// wrap returns the forwarding wrapper whose capability set equals
// inner's, so the planner takes the same branches through either.
func wrap(inner engine.Executor, tr *tracer) (engine.Executor, error) {
	base := &tracedExec{inner: inner, tr: tr}
	want := capabilities(inner)
	for _, w := range []engine.Executor{base, bitmapExec{base}, fullExec{bitmapExec{base}}} {
		if slices.Equal(capabilities(w), want) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("no forwarding wrapper has the capabilities %v of %s", want, inner.Label())
}

// buildExec constructs the executor holistic.Store builds for cfg, from
// the engine's public constructors (it mirrors Store.build for the modes
// the benchmark uses).
func buildExec(tbl *engine.Table, cfg holistic.Config) (engine.Executor, error) {
	threads := cfg.Threads
	crackCfg := cracking.Config{
		Kernel:          cracking.KernelVectorized,
		ParallelWorkers: threads,
		WithRows:        true,
		Seed:            cfg.Seed,
	}
	switch cfg.Mode {
	case holistic.ModeScan:
		return engine.NewScanExecutor(tbl, threads), nil
	case holistic.ModeHolistic:
		user := max(threads/2, 1)
		crackCfg.ParallelWorkers = user
		return engine.NewHolisticExecutor(tbl, engine.HolisticConfig{
			Cracking: crackCfg,
			Daemon: holisticd.Config{
				Interval: cfg.TuningInterval,
				Strategy: stats.W4,
				Seed:     cfg.Seed,
			},
			L1Values:    stats.DefaultL1Values,
			Contexts:    threads,
			UserThreads: user,
			StatsSeed:   cfg.Seed,
		}), nil
	}
	return nil, fmt.Errorf("no traced stack for mode %v", cfg.Mode)
}

// examinedSink sums, over conjunctive count and sum queries that used an
// intermediate representation, the rows the driving conjunct produced
// and the rows that qualified.
type examinedSink struct {
	scanned, emitted int64
}

func (s *examinedSink) Emit(tr *obs.QueryTrace) {
	if (tr.Kind == obs.KindCount || tr.Kind == obs.KindSum) && tr.Rep != "native" {
		s.scanned += tr.Scanned
		s.emitted += tr.Emitted
	}
}

// stack is one workload's tables behind traced executors and query
// runners configured as holistic.Store configures its own.
type stack struct {
	w       *workload
	tr      *tracer
	inner   []engine.Executor
	execs   []engine.Executor
	runners []*query.Runner
	qmet    []*obs.QueryMetrics
	sink    *examinedSink
	seen    []uint64
}

func newStack(w *workload, cfg holistic.Config, tr *tracer) (*stack, error) {
	st := &stack{w: w, tr: tr, sink: &examinedSink{}}
	for _, t := range w.tables {
		tbl := engine.NewTable(t.name)
		for i, a := range t.attrs {
			if err := tbl.AddColumn(column.New(a, slices.Clone(t.cols[i]))); err != nil {
				st.close()
				return nil, err
			}
		}
		inner, err := buildExec(tbl, cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.inner = append(st.inner, inner)
		if ins, ok := inner.(engine.Instrumented); ok {
			ins.SetExecMetrics(&obs.ExecMetrics{})
		}
		fr := flight.NewRecorder(cfg.FlightEvents)
		ec := econ.New()
		if h, ok := inner.(*engine.HolisticExecutor); ok {
			h.Daemon.SetFlight(fr)
			h.SetEcon(ec)
		}
		ex, err := wrap(inner, tr)
		if err != nil {
			st.close()
			return nil, err
		}
		r := query.New(tbl, ex, cfg.Threads)
		met := obs.NewQueryMetrics()
		r.SetMetrics(met)
		r.SetFlight(fr)
		r.SetEcon(ec)
		r.SetTraceSink(st.sink)
		st.execs = append(st.execs, ex)
		st.runners = append(st.runners, r)
		st.qmet = append(st.qmet, met)
	}
	return st, nil
}

func (st *stack) close() {
	for _, e := range st.inner {
		e.Close()
	}
}

func (st *stack) preds(ti int, ps []pred) []query.Predicate {
	out := make([]query.Predicate, len(ps))
	for i, p := range ps {
		out[i] = query.Predicate{Attr: st.w.tables[ti].attrs[p.attr], Lo: p.lo, Hi: p.hi}
	}
	return out
}

func (st *stack) do(o *op) (answer, error) {
	e, r, tb := st.execs[0], st.runners[0], st.w.tables[0]
	var p pred
	if len(o.preds) > 0 {
		p = o.preds[0]
	}
	switch o.kind {
	case opCount:
		n, err := e.Count(tb.attrs[p.attr], p.lo, p.hi)
		return answer{n: int64(n)}, err
	case opSum:
		v, err := e.Sum(tb.attrs[p.attr], p.lo, p.hi)
		return answer{sum: v}, err
	case opMinMax:
		mn, mx, ok, err := e.MinMax(tb.attrs[p.attr], p.lo, p.hi)
		return minMaxAnswer(mn, mx, ok), err
	case opRows:
		rows, err := e.SelectRows(tb.attrs[p.attr], p.lo, p.hi)
		return rowsAnswer(rows, tb.cols[p.attr], p, &st.seen), err
	case opConjCount:
		id := st.tr.begin("query.conj")
		defer st.tr.end(id)
		n, err := r.Count(st.preds(0, o.preds))
		return answer{n: int64(n)}, err
	case opConjSum:
		id := st.tr.begin("query.conj")
		defer st.tr.end(id)
		v, err := r.Sum(tb.attrs[o.attr], st.preds(0, o.preds))
		return answer{sum: v}, err
	case opGroup:
		id := st.tr.begin("query.group")
		defer st.tr.end(id)
		res, err := r.Grouped([]string{tb.attrs[2]}, []groupby.Agg{groupby.Count(), groupby.Sum(tb.attrs[1])}, st.preds(0, o.preds))
		if err != nil {
			return answer{}, err
		}
		return groupPrint(res.Keys[0], res.Aggs[0], res.Aggs[1]), nil
	case opJoin:
		id := st.tr.begin("query.join")
		defer st.tr.end(id)
		n, err := r.Join(st.runners[1], tb.attrs[3], st.w.tables[1].attrs[0], st.preds(0, o.preds), st.preds(1, o.dimPreds)).Count()
		return answer{n: n}, err
	case opInsert:
		return answer{}, e.(engine.Inserter).Insert(tb.attrs[o.attr], o.v)
	case opUpdate:
		return answer{}, e.(engine.Updater).Update(tb.attrs[o.attr], o.v, o.w)
	case opDelete:
		return answer{}, e.(engine.Deleter).Delete(tb.attrs[o.attr], o.v)
	}
	return answer{}, fmt.Errorf("unknown op kind %d", o.kind)
}

// planChoices sums the representation and strategy counters of the
// given query snapshots, keyed "rep/<name>" and "strategy/<name>".
func planChoices(snaps ...*obs.QuerySnapshot) map[string]int64 {
	out := map[string]int64{}
	for _, s := range snaps {
		for k, v := range s.Representations {
			out["rep/"+k] += v
		}
		for k, v := range s.Strategies {
			out["strategy/"+k] += v
		}
	}
	return out
}

func (st *stack) planChoices() map[string]int64 {
	var snaps []*obs.QuerySnapshot
	for _, m := range st.qmet {
		snaps = append(snaps, m.Snapshot())
	}
	return planChoices(snaps...)
}

func storePlanChoices(ss []*holistic.Store) map[string]int64 {
	var snaps []*obs.QuerySnapshot
	for _, s := range ss {
		snaps = append(snaps, s.Metrics().Query)
	}
	return planChoices(snaps...)
}

// fidelityOps is the length of the operation prefix the plan-fidelity
// check replays.
const fidelityOps = 150

// checkFidelity replays a prefix of the workload through a store and
// through the traced stack, both with the daemon's tuning interval set
// beyond the check so neither refines in the background and both make
// the same decisions. It returns an error when the answers or the plan
// choices differ; the pass counts the operations of both sides.
func checkFidelity(w *workload, cfg holistic.Config, p *pass) error {
	cfg.TuningInterval = time.Hour
	prefix := *w
	prefix.durable = false
	prefix.think = 0
	prefix.ops = w.ops[:min(len(w.ops), fidelityOps)]
	ss, err := openStores(&prefix, cfg, "", w.columns())
	if err != nil {
		return err
	}
	defer closeAll(ss)
	st, err := newStack(&prefix, cfg, newTracer())
	if err != nil {
		return err
	}
	defer st.close()
	a := runPass(&prefix, &storeTarget{w: &prefix, ss: ss}, nil)
	b := runPass(&prefix, st, st.tr)
	p.attempted += a.attempted + b.attempted
	p.failed += a.failed + b.failed
	want, got := storePlanChoices(ss), st.planChoices()
	if !maps.Equal(want, got) {
		return fmt.Errorf("traced plan choices %v differ from the store's %v", got, want)
	}
	return nil
}
