package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"lfsc/internal/metrics"
	"lfsc/internal/serve"
	"lfsc/internal/sim"
)

// small shrinks every run so the tests take seconds; the code paths are
// the measured ones.
func small(t *testing.T) {
	t.Helper()
	saved, savedRoot := size, scratchRoot
	size = sizes{
		simEpisodeT: 60, simSeeds: 3,
		serveSessions: 2, serveWarmup: 5, serveQualitySlots: 20,
		faninSessions: 2, faninWarmup: 10, faninChunk: 10, faninQualitySlots: 40,
	}
	scratchRoot = t.TempDir()
	t.Cleanup(func() { size, scratchRoot = saved, savedRoot })
}

const shortBudget = 200 * time.Millisecond

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the code: the same
// workloads, and the same metric names with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q in BENCHMARK.json is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		list  []struct{ Name, Unit string }
		table map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.list) != len(c.table) {
			t.Errorf("BENCHMARK.json lists %d metrics, the table has %d", len(c.list), len(c.table))
		}
		for _, m := range c.list {
			if u, ok := c.table[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s [%s] in BENCHMARK.json; table has [%s] (present %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}

// checkReport requires a correct run reporting exactly the table's metrics
// with their units.
func checkReport(t *testing.T, name string, r *result, err error, table map[string]string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct %v failed %d attempted %d; notes %v", name, r.Correct, r.Failed, r.Attempted, r.notes)
	}
	if len(r.Metrics) != len(table) {
		t.Errorf("%s: %d metrics, want %d", name, len(r.Metrics), len(table))
	}
	for n, u := range table {
		m, ok := r.Metrics[n]
		if !ok || m.Unit != u {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, n, m, u)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced.
func TestShortRuns(t *testing.T) {
	small(t)
	for name, w := range workloads {
		r, err := w.run(7, shortBudget)
		checkReport(t, name, r, err, endToEnd)
		for _, n := range []string{"slots_per_s", "setup_s", "step_p50_ms", "reward_per_slot", "v1_per_slot", "v2_per_slot"} {
			if v := r.Metrics[n].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, n, v)
			}
		}
		tr, err := w.traced(7, shortBudget)
		checkReport(t, name+" traced", tr, err, perLayer)
	}
}

// TestSeedsDiffer checks two seeds give different, valid inputs and
// results, and one seed gives the same quality figures twice.
func TestSeedsDiffer(t *testing.T) {
	small(t)
	for _, name := range []string{"sim-paper", "serve-paper"} {
		w := workloads[name]
		a, errA := w.run(1, shortBudget)
		b, errB := w.run(2, shortBudget)
		again, errC := w.run(1, shortBudget)
		checkReport(t, name, a, errA, endToEnd)
		checkReport(t, name, b, errB, endToEnd)
		checkReport(t, name, again, errC, endToEnd)
		for _, n := range []string{"reward_per_slot", "v1_per_slot", "v2_per_slot"} {
			if a.Metrics[n] == b.Metrics[n] {
				t.Errorf("%s: seeds 1 and 2 give the same %s %v", name, n, a.Metrics[n].Value)
			}
			if a.Metrics[n] != again.Metrics[n] {
				t.Errorf("%s: seed 1 gives %s %v then %v", name, n, a.Metrics[n].Value, again.Metrics[n].Value)
			}
		}
	}
}

// TestThreeWayIdentity checks the serve-paper path end to end against the
// offline simulator: an HTTP replay of T slots against a daemon with the
// default observability stack, the daemon's own accumulator, and sim.Run
// at the same seed and T agree bit for bit.
func TestThreeWayIdentity(t *testing.T) {
	const T, seed = 120, 5
	sc := paperReplay(seed)
	sc.T = T
	cfg, err := sc.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	withObs(&cfg)
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.srv.Close()
	rep, err := serve.NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	conn := newStepConn(serve.NewClient(d.srv.Addr()), sc, T)
	if _, err := rep.Run(conn, 0, T, nil); err != nil {
		t.Fatal(err)
	}
	d.eng.Stop()
	simSc := sim.PaperScenario()
	simSc.Cfg.T = T
	series, err := sim.Run(simSc, sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	offline := 0.0
	for _, v := range series.Reward {
		offline += v
	}
	if err := gateIdentity("client", rep.CumReward(), "daemon", d.eng.CumReward()); err != nil {
		t.Fatal(err)
	}
	if err := gateIdentity("client", rep.CumReward(), "offline sim.Run", offline); err != nil {
		t.Fatal(err)
	}
	// The client-side quality figures are the simulator's.
	if got, want := conn.q.reward, offline; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("client-computed reward %x, sim %x", got, want)
	}
	if got, want := conn.q.v1, series.TotalV1(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("client-computed V1 %v, sim %v", got, want)
	}
	if got, want := conn.q.v2, series.TotalV2(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("client-computed V2 %v, sim %v", got, want)
	}
}

// TestGatesRejectCorruptResults feeds each correctness gate a corrupted
// result.
func TestGatesRejectCorruptResults(t *testing.T) {
	t.Run("sim repeatability", func(t *testing.T) {
		a := metrics.NewSeries("LFSC", 3)
		for i := 0; i < 3; i++ {
			a.Record(i, 10+float64(i), 1, 2, 5, 4)
		}
		b := metrics.NewSeries("LFSC", 3)
		for i := 0; i < 3; i++ {
			b.Record(i, 10+float64(i), 1, 2, 5, 4)
		}
		st := &simRunStats{first: map[uint64]*metrics.Series{}}
		st.add(0, &simEpisode{seed: 1, series: a}, nil)
		st.add(1, &simEpisode{seed: 1, series: b}, nil)
		if st.err != nil {
			t.Fatalf("identical series rejected: %v", st.err)
		}
		c := metrics.NewSeries("LFSC", 3)
		for i := 0; i < 3; i++ {
			c.Record(i, 10+float64(i), 1, 2, 5, 4)
		}
		c.Reward[2] = math.Nextafter(c.Reward[2], math.Inf(1))
		st.add(2, &simEpisode{seed: 1, series: c}, nil)
		if !errors.Is(st.err, errInvariant) {
			t.Fatalf("a reward one ulp off passed: %v", st.err)
		}
		traced := &simRunStats{first: map[uint64]*metrics.Series{}}
		traced.add(0, &simEpisode{seed: 1, series: c}, st.first)
		if !errors.Is(traced.err, errInvariant) {
			t.Fatalf("a traced run one ulp off its untraced reference passed: %v", traced.err)
		}
	})
	t.Run("serve identity", func(t *testing.T) {
		if err := gateIdentity("a", 1.5, "b", 1.5); err != nil {
			t.Fatal(err)
		}
		if gateIdentity("a", 1.5, "b", math.Nextafter(1.5, 2)) == nil {
			t.Fatal("rewards one ulp apart passed")
		}
	})
	t.Run("fan-in half", func(t *testing.T) {
		specs := []serve.TaskSpec{{SCNs: []int{0, 1}}, {SCNs: []int{2}}}
		good := serve.SubmitResponse{Slot: 4, Base: 0, Assigned: []int{1, -1}}
		if err := checkHalf(4, specs, &good); err != nil {
			t.Fatal(err)
		}
		for name, bad := range map[string]serve.SubmitResponse{
			"unlisted SCN":   {Slot: 4, Assigned: []int{2, -1}},
			"wrong slot":     {Slot: 5, Assigned: []int{1, -1}},
			"task undecided": {Slot: 4, Assigned: []int{1}},
			"extra decision": {Slot: 4, Assigned: []int{1, -1, 0}},
		} {
			if err := checkHalf(4, specs, &bad); !errors.Is(err, errInvariant) {
				t.Errorf("%s: got %v", name, err)
			}
		}
	})
	t.Run("fan-in slot", func(t *testing.T) {
		a := slotRec{slot: 3, base: 0, n: faninHalf}
		b := slotRec{slot: 3, base: faninHalf, n: faninHalf}
		a.counts[7], b.counts[7] = 2, 1
		if err := checkSlot(&a, &b, faninCapacity); err != nil {
			t.Fatal(err)
		}
		over := b
		over.counts[7] = 2
		twice := b
		twice.base = 0
		apart := b
		apart.slot = 4
		for name, bad := range map[string]slotRec{"over capacity": over, "decided twice": twice, "slots apart": apart} {
			if err := checkSlot(&a, &bad, faninCapacity); !errors.Is(err, errInvariant) {
				t.Errorf("%s: got %v", name, err)
			}
		}
	})
	t.Run("fan-in counters", func(t *testing.T) {
		st := serve.Stats{SlotsServed: 2, SubmittedTasks: 2 * faninBatch, DecidedTasks: 2 * faninBatch}
		if err := checkCounters(st, 2); err != nil {
			t.Fatal(err)
		}
		lost := st
		lost.DecidedTasks--
		extra := st
		extra.SlotsServed++
		for name, bad := range map[string]serve.Stats{"task not decided": lost, "extra slot": extra} {
			if err := checkCounters(bad, 2); !errors.Is(err, errInvariant) {
				t.Errorf("%s: got %v", name, err)
			}
		}
	})
	t.Run("failed requests", func(t *testing.T) {
		r := newResult()
		countFailures(r, 10, serve.Stats{}, nil)
		if !r.Correct || r.Failed != 0 || r.Attempted != 10 {
			t.Fatalf("clean session: correct %v failed %d attempted %d", r.Correct, r.Failed, r.Attempted)
		}
		for name, c := range map[string]struct {
			st     serve.Stats
			err    error
			failed int64
		}{
			"shed":            {serve.Stats{ShedRequests: 1}, &serve.ErrShed{Msg: "full"}, 1},
			"late report":     {serve.Stats{LateReports: 1}, &serve.ErrLate{Msg: "closed"}, 1},
			"report timeout":  {serve.Stats{LateSlots: 2}, nil, 2},
			"transport error": {serve.Stats{}, errors.New("connection reset"), 1},
		} {
			r := newResult()
			countFailures(r, 10, c.st, c.err)
			if r.Correct || r.Failed != c.failed {
				t.Errorf("%s: correct %v failed %d, want false %d", name, r.Correct, r.Failed, c.failed)
			}
		}
	})
	t.Run("non-finite metric", func(t *testing.T) {
		r := newResult()
		r.set("slots_per_s", math.NaN())
		if r.Correct {
			t.Fatal("a NaN metric passed")
		}
	})
}
