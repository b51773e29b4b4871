package holistic

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/engine"
	"holistic/internal/workload"
)

func storeConfig(mode Mode) Config {
	return Config{
		Mode:                 mode,
		Threads:              2,
		TuningInterval:       time.Millisecond,
		RefinementsPerWorker: 8,
		L1CacheBytes:         4096,
		Seed:                 1,
	}
}

func buildStore(t *testing.T, mode Mode, attrs, rows int, domain int64) (*Store, [][]int64) {
	t.Helper()
	s := NewStore(storeConfig(mode))
	bases := make([][]int64, attrs)
	for a := 0; a < attrs; a++ {
		bases[a] = workload.UniformColumn(rows, domain, int64(200+a))
		if err := s.AddIntColumn(attr(a), bases[a]); err != nil {
			t.Fatal(err)
		}
	}
	return s, bases
}

func attr(a int) string { return string(rune('a' + a)) }

func TestAllModesAnswerCorrectly(t *testing.T) {
	const domain = 1 << 16
	modes := []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic}
	for _, mode := range modes {
		s, bases := buildStore(t, mode, 2, 10_000, domain)
		s.Prepare()
		rng := rand.New(rand.NewSource(5))
		for q := 0; q < 40; q++ {
			a := rng.Intn(2)
			lo := rng.Int63n(domain)
			hi := lo + rng.Int63n(domain-lo) + 1
			got, err := s.CountRange(attr(a), lo, hi)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if want := column.CountRange(bases[a], lo, hi); got != want {
				t.Fatalf("%v query %d: got %d, want %d", mode, q, got, want)
			}
		}
		s.Close()
	}
}

func TestAddColumnAfterQueryFails(t *testing.T) {
	s, _ := buildStore(t, ModeAdaptive, 1, 100, 1000)
	defer s.Close()
	if _, err := s.CountRange("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("late", make([]int64, 100)); err == nil {
		t.Fatal("column added after first query")
	}
}

func TestUnknownAttribute(t *testing.T) {
	s, _ := buildStore(t, ModeAdaptive, 1, 100, 1000)
	defer s.Close()
	if _, err := s.CountRange("nope", 0, 10); err == nil {
		t.Fatal("unknown attribute did not error")
	}
}

func TestInsertSupportedModes(t *testing.T) {
	s, base := buildStore(t, ModeAdaptive, 1, 5_000, 1000)
	defer s.Close()
	s.CountRange("a", 0, 500)
	for i := 0; i < 10; i++ {
		if err := s.Insert("a", 400); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.CountRange("a", 400, 401)
	if want := column.CountRange(base[0], 400, 401) + 10; got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}

	scan, _ := buildStore(t, ModeScan, 1, 100, 1000)
	defer scan.Close()
	if err := scan.Insert("a", 1); err == nil {
		t.Fatal("scan mode accepted an insert")
	}
}

func TestHolisticBackgroundRefinement(t *testing.T) {
	s, base := buildStore(t, ModeHolistic, 2, 100_000, 1<<20)
	defer s.Close()
	if _, err := s.CountRange("a", 0, 1<<19); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for s.Stats().Refinements == 0 {
		select {
		case <-deadline:
			t.Fatalf("daemon never refined; stats %+v", s.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := s.Stats()
	if st.Pieces < 3 || st.Activations == 0 {
		t.Errorf("stats = %+v, want pieces and activations to grow", st)
	}
	// Correctness under continuous refinement.
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		got, _ := s.CountRange("a", lo, hi)
		if want := column.CountRange(base[0], lo, hi); got != want {
			t.Fatalf("query %d: got %d, want %d", q, got, want)
		}
	}
}

func TestAddPotentialIndex(t *testing.T) {
	s, _ := buildStore(t, ModeHolistic, 2, 20_000, 1<<16)
	defer s.Close()
	if err := s.AddPotentialIndex("b"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for s.Stats().Pieces < 3 {
		select {
		case <-deadline:
			t.Fatalf("potential index not refined; stats %+v", s.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
	sa, _ := buildStore(t, ModeAdaptive, 1, 100, 1000)
	defer sa.Close()
	if err := sa.AddPotentialIndex("a"); err == nil {
		t.Fatal("adaptive mode accepted a potential index")
	}
}

func TestStrategyMapping(t *testing.T) {
	pairs := map[Strategy]string{
		StrategyRandom: "W4", StrategyDistance: "W1",
		StrategyFrequency: "W2", StrategyMisses: "W3",
	}
	for s, want := range pairs {
		if got := s.internal().String(); got != want {
			t.Errorf("%d.internal() = %s, want %s", int(s), got, want)
		}
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeScan: "scan", ModeOffline: "offline", ModeOnline: "online",
		ModeAdaptive: "adaptive", ModeStochastic: "stochastic",
		ModeCCGI: "ccgi", ModeHolistic: "holistic",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %s", int(m), m.String())
		}
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode string")
	}
}

func TestStatsNonCrackingModes(t *testing.T) {
	s, _ := buildStore(t, ModeScan, 1, 1000, 1000)
	defer s.Close()
	s.CountRange("a", 0, 10)
	st := s.Stats()
	if st.Pieces != 0 || st.Refinements != 0 {
		t.Errorf("scan stats = %+v, want zeros", st)
	}
}

func implements[T any](x engine.Executor) bool {
	_, ok := x.(T)
	return ok
}

// TestExecutorCapabilities pins the optional interfaces each mode's
// executor implements. The query planner branches on these sets, so a
// refactor of the executors must not move them.
func TestExecutorCapabilities(t *testing.T) {
	probes := []struct {
		name string
		has  func(engine.Executor) bool
	}{
		{"Viewer", implements[engine.Viewer]},
		{"CardEstimator", implements[engine.CardEstimator]},
		{"BitmapSelector", implements[engine.BitmapSelector]},
		{"KeyOrderWalker", implements[engine.KeyOrderWalker]},
		{"PredicateSink", implements[engine.PredicateSink]},
		{"PredicateSpanSink", implements[engine.PredicateSpanSink]},
		{"Inserter", implements[engine.Inserter]},
		{"Deleter", implements[engine.Deleter]},
		{"Updater", implements[engine.Updater]},
		{"Instrumented", implements[engine.Instrumented]},
	}
	const (
		sorted   = "CardEstimator BitmapSelector KeyOrderWalker"
		cracking = "Viewer CardEstimator BitmapSelector KeyOrderWalker Inserter Deleter Updater Instrumented"
	)
	want := map[Mode]string{
		ModeScan:       "BitmapSelector Instrumented",
		ModeOffline:    sorted,
		ModeOnline:     sorted,
		ModeAdaptive:   cracking,
		ModeStochastic: cracking,
		ModeCCGI:       "BitmapSelector",
		ModeHolistic:   "Viewer CardEstimator BitmapSelector KeyOrderWalker PredicateSink PredicateSpanSink Inserter Deleter Updater Instrumented",
	}
	for mode := ModeScan; mode <= ModeHolistic; mode++ {
		s, _ := buildStore(t, mode, 1, 64, 1<<10)
		exec, err := s.executor()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range probes {
			if p.has(exec) {
				got = append(got, p.name)
			}
		}
		if g := strings.Join(got, " "); g != want[mode] {
			t.Errorf("%v: capabilities %q, want %q", mode, g, want[mode])
		}
		s.Close()
	}
}
