package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"holistic"
	"holistic/internal/column"
	"holistic/internal/engine"
)

// tiny builds a workload at 1/1024 of its size with a short sequence.
func tiny(t *testing.T, name string) (*workload, holistic.Config) {
	t.Helper()
	w, err := genWorkload(name, 7, 0.25, 10)
	if err != nil {
		t.Fatal(err)
	}
	return w, storeConfig(w.mode, 2, 7)
}

func TestEveryWorkloadRunsAtTinyScale(t *testing.T) {
	for name := range specs {
		t.Run(name, func(t *testing.T) {
			w, cfg := tiny(t, name)
			res, err := runUntraced(w, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < len(w.ops) {
				t.Fatalf("untraced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
			res, err = runTraced(w, cfg, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
		})
	}
}

func TestWrongAnswerCountsAsFailed(t *testing.T) {
	w, cfg := tiny(t, "scan")
	w.ops[3].want.n++
	w.ops[3].want.sum++
	ss, err := openStores(w, cfg, "", w.columns())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ss)
	p := runPass(w, &storeTarget{w: w, ss: ss}, nil)
	if p.failed != 1 || p.attempted != len(w.ops) {
		t.Fatalf("failed %d of %d, want 1 of %d", p.failed, p.attempted, len(w.ops))
	}
	if res := newResult(p, nil, endToEnd, nil); res.Correct {
		t.Fatal("a run with a wrong answer reports correct")
	}
}

func TestWrapperKeepsCapabilities(t *testing.T) {
	for _, mode := range []holistic.Mode{holistic.ModeScan, holistic.ModeHolistic} {
		w, _ := tiny(t, "scan")
		tbl := engine.NewTable("t")
		for i, a := range w.tables[0].attrs {
			if err := tbl.AddColumn(column.New(a, w.tables[0].cols[i])); err != nil {
				t.Fatal(err)
			}
		}
		inner, err := buildExec(tbl, storeConfig(mode, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := wrap(inner, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := capabilities(ex), capabilities(inner); !slices.Equal(got, want) {
			t.Errorf("%v: wrapper capabilities %v, executor %v", mode, got, want)
		}
		inner.Close()
	}
}

// TestTracedRunKeepsPlanChoices checks that the traced stack, behind
// its forwarding wrapper, answers like the store and makes the same
// representation and strategy choices on the workloads that plan.
func TestTracedRunKeepsPlanChoices(t *testing.T) {
	for _, name := range []string{"analytics", "scan"} {
		t.Run(name, func(t *testing.T) {
			w, cfg := tiny(t, name)
			p := &pass{}
			if err := checkFidelity(w, cfg, p); err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.attempted == 0 {
				t.Fatalf("%d of %d operations failed", p.failed, p.attempted)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	if got, want := sortedKeys(specs), slices.Sorted(slices.Values(workloads)); !slices.Equal(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
	for _, c := range []struct {
		code []struct{ name, unit string }
		json []named
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Fatalf("%d metrics, BENCHMARK.json lists %d", len(c.code), len(c.json))
		}
		for i, m := range c.code {
			if m.name != c.json[i].Name || m.unit != c.json[i].Unit {
				t.Errorf("metric %d is %s (%s), BENCHMARK.json lists %s (%s)", i, m.name, m.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}

func TestPerOpMedianKeepsOnlyRepeatedCosts(t *testing.T) {
	ms := time.Millisecond
	rounds := [][]time.Duration{
		{1 * ms, 9 * ms, 5 * ms},
		{1 * ms, 1 * ms, 5 * ms},
		{1 * ms, 1 * ms, 1 * ms},
		{9 * ms, 1 * ms, 5 * ms},
		{1 * ms, 1 * ms, 1 * ms},
	}
	// A stall in one round is dropped; a cost paid in three of five
	// rounds is kept.
	want := []time.Duration{1 * ms, 1 * ms, 5 * ms}
	if got := perOpMedian(rounds); !slices.Equal(got, want) {
		t.Errorf("perOpMedian = %v, want %v", got, want)
	}
}
