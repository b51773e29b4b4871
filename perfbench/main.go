// Command perfbench is the repository's benchmark. It generates seeded
// inputs, drives the public holistic.Store API through one workload,
// checks every answer against an oracle, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"holistic"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units, measured with
// tracing off on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"read_total_s", "s"},
	{"cpu_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run with their
// units. A workload that does not exercise a layer reports its metrics
// as 0.
var perLayer = []struct{ name, unit string }{
	{"store.count_p50_us", "us"},
	{"store.sum_p50_us", "us"},
	{"store.minmax_p50_us", "us"},
	{"store.rows_p50_us", "us"},
	{"store.conj_p50_us", "us"},
	{"store.group_p50_us", "us"},
	{"store.join_p50_us", "us"},
	{"store.insert_p50_us", "us"},
	{"store.update_p50_us", "us"},
	{"store.delete_p50_us", "us"},
	{"store.write_p50_us", "us"},
	{"store.write_p99_us", "us"},
	{"query.self_us", "us"},
	{"query.bitmap_frac", "ratio"},
	{"query.examined_per_result", "ratio"},
	{"engine.select_us", "us"},
	{"engine.calls_per_query", "count"},
	{"engine.cracker_builds", "count"},
	{"engine.merged_updates", "count"},
	{"cracking.select_us", "us"},
	{"cracking.first_touch_ms", "ms"},
	{"cracking.partition_gbps", "GB/s"},
	{"cracking.pieces", "count"},
	{"cracking.merge_us", "us"},
	{"holistic.refinements", "count"},
	{"holistic.activations", "count"},
	{"holistic.attempts_per_refinement", "ratio"},
	{"holistic.busy_reroll_frac", "ratio"},
	{"holistic.invested_s", "s"},
	{"holistic.convergence", "ratio"},
	{"holistic.driving_invest_frac", "ratio"},
	{"holistic.gain_vs_adaptive", "ratio"},
	{"column.count_gbps", "GB/s"},
	{"column.sum_gbps", "GB/s"},
	{"column.bitmap_gbps", "GB/s"},
	{"column.filter_ns_per_row", "ns"},
	{"groupby.sort_frac", "ratio"},
	{"join.merge_frac", "ratio"},
	{"durable.wal_bytes_per_write", "B"},
	{"durable.writes_per_sync", "ratio"},
	{"durable.disk_bytes_per_user_byte", "ratio"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.recover_ms", "ms"},
	{"durable.reopen_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: explore, analytics, ingest or scan")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "measured time: sets the operation count")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	work := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for store files and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	start := time.Now()
	w, err := genWorkload(*name, *seed, float64(*seconds)/rounds, 0)
	if err != nil {
		return err
	}
	fmt.Printf("inputs and oracle: %d operations in %.2f s\n", len(w.ops), time.Since(start).Seconds())
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	cfg := storeConfig(w.mode, queryThreads(w.mode), *seed)
	fmt.Printf("workload %s: %s\n", w.name, specs[w.name].why)
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, cfg, *seed, *work)
	} else {
		res, err = runUntraced(w, cfg, *work)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("kernel sink %d\n", sink)
	fmt.Println(string(out))
	return nil
}

// liveHeap returns the live heap after two collections, the second
// emptying sync.Pool victim caches the first left behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// rounds is how many times an untraced run replays the fixed sequence,
// each time on freshly set-up stores; --seconds is spread over them.
// Timings are medians over rounds. Every round issues the same reads in
// the same order, so each read's latency is its median over the rounds
// and the latency percentiles are over those medians: a stall that hits
// a read in a minority of the rounds (preemption on a shared machine, a
// badly timed refinement) does not reach the percentiles, while a cost
// the read pays in most rounds does. Three long rounds rather than more
// short ones: the tail of a cracking workload is the first few cracks
// of each attribute, and a longer sequence puts p99 over more of them,
// so it varies less with the seed.
const rounds = 3

// runUntraced measures the end-to-end metrics through the public API.
func runUntraced(w *workload, cfg holistic.Config, work string) (*result, error) {
	all := &pass{}
	var setups, totals, cpus []time.Duration
	var reads [][]time.Duration
	var heaps []float64
	for r := range rounds {
		h0 := liveHeap()
		ss, dir, st, err := setup(w, cfg, work)
		if err != nil {
			return nil, err
		}
		p := runPass(w, &storeTarget{w: w, ss: ss}, nil)
		h1 := liveHeap()
		if w.durable {
			s, r, err := reopen(w, ss, cfg, dir, p)
			if err != nil {
				closeAll(ss[1:])
				os.RemoveAll(dir)
				return nil, err
			}
			ss[0] = s
			fmt.Printf("reopen %.3f s (recover %.3f s)\n", r.reopen.Seconds(), r.recover.Seconds())
		}
		closeAll(ss)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		fmt.Printf("round %d: setup %.4f s, read_total %.4f s, cpu %.4f s, read p50 %.1f us p99 %.1f us\n", r, median(st).Seconds(), p.readTotal.Seconds(), p.cpu.Seconds(), us(median(p.reads)), us(quantile(p.reads, 0.99)))
		all.attempted += p.attempted
		all.failed += p.failed
		reads = append(reads, p.reads)
		all.writes = append(all.writes, p.writes...)
		setups = append(setups, st...)
		totals = append(totals, p.readTotal)
		cpus = append(cpus, p.cpu)
		heaps = append(heaps, (float64(h1)-float64(h0))/1e6)
	}
	typ := perOpMedian(reads)
	fmt.Printf("reads n=%d x %d rounds, per-read median over rounds: p50 %.1f us p99 %.1f us; writes n=%d pooled: p50 %.1f us p99 %.1f us\n",
		len(typ), rounds, us(median(typ)), us(quantile(typ, 0.99)), len(all.writes), us(median(all.writes)), us(quantile(all.writes, 0.99)))
	vals := map[string]float64{
		"setup_s":      median(setups).Seconds(),
		"read_p50_us":  us(median(typ)),
		"read_p99_us":  us(quantile(typ, 0.99)),
		"read_total_s": median(totals).Seconds(),
		"cpu_s":        median(cpus).Seconds(),
		"heap_mb":      median(heaps),
	}
	return newResult(all, nil, endToEnd, vals), nil
}

// queryThreads is the Threads a workload's stores get: the machine's
// CPUs, except that ModeScan stores get half of them. Holistic stores
// run a user query on UserThreads, Threads/2 by default, and leave the
// rest to the daemon; a scan store given every CPU would fan each query
// out over the whole machine, so its latency would be that of the
// slowest CPU and, on a shared host, measure other tenants' load.
func queryThreads(mode holistic.Mode) int {
	if mode == holistic.ModeScan {
		return max(1, runtime.NumCPU()/2)
	}
	return runtime.NumCPU()
}

// perOpMedian returns, for each position of the fixed operation
// sequence, the median of its latencies over the rounds.
func perOpMedian(rounds [][]time.Duration) []time.Duration {
	out := make([]time.Duration, len(rounds[0]))
	col := make([]time.Duration, len(rounds))
	for i := range out {
		for r, lat := range rounds {
			col[r] = lat[i]
		}
		out[i] = median(col)
	}
	return out
}

func newResult(p *pass, extra error, names []struct{ name, unit string }, vals map[string]float64) *result {
	res := &result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	res.Correct = p.failed == 0 && extra == nil
	if extra != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", extra)
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// runTraced is the traced run: the workload through the store (the
// untraced reference, plus the store's own counters), then through the
// traced executor and runner stack, then on ModeAdaptive for the
// holistic gain, the plan-fidelity check, and the kernel replays.
func runTraced(w *workload, cfg holistic.Config, seed uint64, work string) (*result, error) {
	vals := map[string]float64{}
	all := &pass{}
	add := func(p *pass) {
		all.attempted += p.attempted
		all.failed += p.failed
	}

	dir := filepath.Join(work, fmt.Sprintf("traced-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	ss, err := openStores(w, cfg, dir, w.columns())
	if err != nil {
		return nil, err
	}
	p1 := runPass(w, &storeTarget{w: w, ss: ss}, nil)
	storeLayer(p1, vals)
	storeCounters(ss, vals)
	if w.durable {
		if err := durableLayer(w, ss, cfg, dir, p1, vals); err != nil {
			closeAll(ss)
			return nil, err
		}
	}
	closeAll(ss)
	add(p1)

	tr := newTracer()
	st, err := newStack(w, cfg, tr)
	if err != nil {
		return nil, err
	}
	p2 := runPass(w, st, tr)
	st.close()
	add(p2)
	choices := st.planChoices()
	vals["query.self_us"] = us(median(tr.selfTimes("query.conj", "query.group", "query.join")))
	vals["query.bitmap_frac"] = ratio(float64(choices["rep/bitmap"]), float64(choices["rep/bitmap"]+choices["rep/poslist"]))
	vals["query.examined_per_result"] = ratio(float64(st.sink.scanned), float64(st.sink.emitted))
	vals["engine.select_us"] = us(median(tr.durations(selectSpans...)))
	vals["engine.calls_per_query"] = ratio(float64(tr.count("engine.")), float64(len(w.ops)))
	vals["trace.overhead_frac"] = ratio(p2.readTotal.Seconds(), p1.readTotal.Seconds()) - 1
	if err := tr.write(filepath.Join(work, "spans-"+w.name+".jsonl")); err != nil {
		return nil, err
	}

	if w.mode == holistic.ModeHolistic && !w.durable {
		acfg := cfg
		acfg.Mode = holistic.ModeAdaptive
		as, err := openStores(w, acfg, "", w.columns())
		if err != nil {
			return nil, err
		}
		p3 := runPass(w, &storeTarget{w: w, ss: as}, nil)
		closeAll(as)
		add(p3)
		vals["holistic.gain_vs_adaptive"] = ratio(p3.readTotal.Seconds(), p1.readTotal.Seconds())
	}

	fidelity := checkFidelity(w, cfg, all)
	for k, v := range crackingReplay(w, seed, cfg.Threads, all) {
		vals[k] = v
	}
	for k, v := range columnReplay(w, seed) {
		vals[k] = v
	}
	for _, m := range perLayer {
		fmt.Printf("%-36s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	return newResult(all, fidelity, perLayer, vals), nil
}

// storeLayer splits the store pass's latencies by operation type.
func storeLayer(p *pass, vals map[string]float64) {
	for k := range numOpKinds {
		lat := p.lat[k]
		if k == opConjCount {
			lat = append(append([]time.Duration(nil), lat...), p.lat[opConjSum]...)
		} else if k == opConjSum {
			continue
		}
		vals["store."+opNames[k]+"_p50_us"] = us(median(lat))
	}
	vals["store.write_p50_us"] = us(median(p.writes))
	vals["store.write_p99_us"] = us(quantile(p.writes, 0.99))
}

// storeCounters reads the engine, daemon, economics and plan-choice
// counters of the store pass through Store.Stats and Store.Metrics.
func storeCounters(ss []*holistic.Store, vals map[string]float64) {
	var builds, merged, refinements, activations, attempts, rerolls, invested, driving int64
	conv, daemons := 0.0, 0
	for _, s := range ss {
		st, m := s.Stats(), s.Metrics()
		builds += m.Exec.CrackerBuilds
		merged += m.Exec.MergedUpdates
		refinements += st.Refinements
		activations += int64(st.Activations)
		if d := m.Daemon; d != nil {
			attempts += d.Attempts
			rerolls += d.BusyRerolls
			conv += d.Ratio
			daemons++
		}
		if e := m.Economics; e != nil {
			for _, ix := range e.Indexes {
				invested += ix.InvestedNS
				if ix.DriveQueries > 0 {
					driving += ix.InvestedNS
				}
			}
		}
	}
	vals["engine.cracker_builds"] = float64(builds)
	vals["engine.merged_updates"] = float64(merged)
	vals["holistic.refinements"] = float64(refinements)
	vals["holistic.activations"] = float64(activations)
	vals["holistic.attempts_per_refinement"] = ratio(float64(attempts), float64(refinements))
	vals["holistic.busy_reroll_frac"] = ratio(float64(rerolls), float64(attempts))
	vals["holistic.invested_s"] = float64(invested) / 1e9
	vals["holistic.convergence"] = ratio(conv, float64(daemons))
	vals["holistic.driving_invest_frac"] = ratio(float64(driving), float64(invested))
	c := storePlanChoices(ss)
	vals["groupby.sort_frac"] = ratio(float64(c["strategy/groupby/sort"]),
		float64(c["strategy/groupby/sort"]+c["strategy/groupby/hash"]+c["strategy/groupby/dense"]))
	vals["join.merge_frac"] = ratio(float64(c["strategy/join/merge"]),
		float64(c["strategy/join/merge"]+c["strategy/join/hash"]))
}

// durableLayer reads the WAL counters, times a checkpoint, measures the
// bytes on disk against the live user bytes, and reopens the store.
func durableLayer(w *workload, ss []*holistic.Store, cfg holistic.Config, dir string, p *pass, vals map[string]float64) error {
	rec := ss[0].Metrics().Recovery
	if rec == nil {
		return errors.New("durable store reports no recovery metrics")
	}
	vals["durable.wal_bytes_per_write"] = ratio(float64(rec.WALBytes), float64(len(p.writes)))
	vals["durable.writes_per_sync"] = ratio(float64(rec.WALRecords), float64(rec.WALSyncs))
	start := time.Now()
	if err := ss[0].Checkpoint(); err != nil {
		return err
	}
	vals["durable.checkpoint_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	var live int64
	for _, f := range w.final {
		live += f.n
	}
	vals["durable.disk_bytes_per_user_byte"] = ratio(float64(disk), float64(live*8))
	s, r, err := reopen(w, ss, cfg, dir, p)
	if err != nil {
		return err
	}
	ss[0] = s
	vals["durable.recover_ms"] = float64(r.recover.Nanoseconds()) / 1e6
	vals["durable.reopen_s"] = r.reopen.Seconds()
	return nil
}
