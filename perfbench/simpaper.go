package main

import (
	"fmt"
	"math"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/metrics"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// sim-paper: sim.Run with the LFSC policy at the paper's Sec. 5 scale
// (30 SCNs, 35–100 tasks per SCN, overlap 0.3, c=20, α=15, β=27, h=3),
// generating the workload live. A run is a sequence of episodes of
// size.simEpisodeT slots; episode k uses the k-th of size.simSeeds seeds
// derived from the run seed, cycling, so the quality figures average
// size.simSeeds independent topologies and every later episode must
// reproduce its seed's earlier result bit for bit.

// sizes are the run-shape parameters. The defaults are what the benchmark
// measures; the tests shrink them.
type sizes struct {
	simEpisodeT, simSeeds                                     int
	serveSessions, serveWarmup, serveQualitySlots             int
	faninSessions, faninWarmup, faninChunk, faninQualitySlots int
}

var size = sizes{
	simEpisodeT: 1000, simSeeds: 16,
	serveSessions: 10, serveWarmup: 50, serveQualitySlots: 500,
	faninSessions: 10, faninWarmup: 100, faninChunk: 100, faninQualitySlots: 3000,
}

// paperConfig is the paper's Sec. 5 configuration over T slots.
func paperConfig(T int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.T = T
	return cfg
}

// simEpisode is one sim.Run call.
type simEpisode struct {
	seed   uint64
	setup  time.Duration // sim.Run entry → policy factory returned
	win    window        // factory returned → sim.Run returned
	steps  []float64     // per-slot step time, ms
	series *metrics.Series
	gen    time.Duration // trace.next busy time (traced episodes)
	core   coreSpans     // learner stage spans (traced episodes)
}

// simScenario builds a live-generation scenario whose generator is wrapped
// in a slotGen (returned through gen); busy, when non-nil, receives the
// generator's busy time.
func simScenario(synth trace.SyntheticConfig, cfg sim.Config, gen **slotGen, busy *time.Duration) *sim.Scenario {
	return &sim.Scenario{
		Cfg:    cfg,
		EnvCfg: env.DefaultConfig(synth.SCNs, 27),
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			g, err := trace.NewSynthetic(synth, r)
			if err != nil {
				return nil, err
			}
			*gen = &slotGen{Synthetic: g, marks: make([]time.Time, 0, cfg.T), busy: busy}
			return *gen, nil
		},
	}
}

// tracedSimPass runs sim.Run with the stage-timed learner (schedule
// overrides as in newTracedLFSC) and the timed generator.
func tracedSimPass(synth trace.SyntheticConfig, cfg sim.Config, seed uint64, horizon, kmax int, cs *coreSpans, busy *time.Duration) (*metrics.Series, error) {
	var gen *slotGen
	sc := simScenario(synth, cfg, &gen, busy)
	series, err := sim.Run(sc, func(rc *sim.RunContext) (policy.Policy, error) {
		return newTracedLFSC(rc, cs, horizon, kmax)
	}, seed)
	tick()
	return series, err
}

// runSimEpisode runs one episode; traced swaps in the stage-timed learner
// and the timed generator.
func runSimEpisode(seed uint64, traced bool) (*simEpisode, error) {
	ep := &simEpisode{seed: seed}
	var gen *slotGen
	var busy *time.Duration
	if traced {
		busy = &ep.gen
	}
	sc := simScenario(trace.DefaultSyntheticConfig(), paperConfig(size.simEpisodeT), &gen, busy)
	var ready time.Time
	factory := func(rc *sim.RunContext) (policy.Policy, error) {
		var p policy.Policy
		var err error
		if traced {
			p, err = newTracedLFSC(rc, &ep.core, 0, 0)
		} else {
			p, err = sim.LFSCFactory(nil)(rc)
		}
		ready = time.Now()
		return p, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	series, err := sim.Run(sc, factory, seed)
	end := time.Now()
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	tick()
	ep.series = series
	ep.setup = ready.Sub(start)
	ep.win = window{slots: size.simEpisodeT, wall: end.Sub(ready), cpu: cpu}
	marks := gen.marks
	ep.steps = make([]float64, len(marks))
	for i := range marks {
		next := end
		if i+1 < len(marks) {
			next = marks[i+1]
		}
		ep.steps[i] = ms(next.Sub(marks[i]))
	}
	return ep, nil
}

// simRunStats aggregates a sequence of episodes. Only each seed's first
// series is kept, as the reference later episodes must reproduce, so the
// benchmark's own memory does not grow with the number of episodes.
type simRunStats struct {
	episodes int
	wins     []window
	setups   []float64
	steps    []float64
	first    map[uint64]*metrics.Series
	q        quality // over the first size.simSeeds episodes
	gen      time.Duration
	core     coreSpans
	err      error // the first episode that did not reproduce its reference
}

// add folds episode k in. Its reference is ref[seed] when ref has one,
// otherwise the first episode of the same seed in this run.
func (st *simRunStats) add(k int, ep *simEpisode, ref map[uint64]*metrics.Series) {
	st.episodes++
	st.wins = append(st.wins, ep.win)
	st.setups = append(st.setups, ep.setup.Seconds())
	st.steps = append(st.steps, ep.steps...)
	st.gen += ep.gen
	st.core.add(ep.core)
	if k < size.simSeeds {
		st.q.add(ep.series.T(), ep.series.TotalReward(), ep.series.TotalV1(), ep.series.TotalV2())
	}
	want, ok := ref[ep.seed]
	if !ok {
		want = st.first[ep.seed]
	}
	if _, seen := st.first[ep.seed]; !seen {
		st.first[ep.seed] = ep.series
	}
	if want != nil && st.err == nil {
		if err := sameSeries(want, ep.series); err != nil {
			st.err = fmt.Errorf("episode %d (seed %d): %w", k, ep.seed, err)
		}
	}
}

// simRun runs episodes for at least budget (and at least minEpisodes),
// cycling through the run's derived seeds; see simRunStats.add for ref.
func simRun(seed uint64, budget time.Duration, minEpisodes int, traced bool, ref map[uint64]*metrics.Series) (*simRunStats, error) {
	seeds := sim.Seeds(seed, size.simSeeds)
	st := &simRunStats{first: map[uint64]*metrics.Series{}}
	start := time.Now()
	for k := 0; k < minEpisodes || time.Since(start) < budget; k++ {
		ep, err := runSimEpisode(seeds[k%size.simSeeds], traced)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", k, err)
		}
		st.add(k, ep, ref)
	}
	return st, nil
}

// sameSeries checks two runs of one seed agree bit for bit on every
// per-slot reward and violation.
func sameSeries(a, b *metrics.Series) error {
	if a.T() != b.T() {
		return fmt.Errorf("horizons differ: %d vs %d", a.T(), b.T())
	}
	for t := range a.Reward {
		if math.Float64bits(a.Reward[t]) != math.Float64bits(b.Reward[t]) ||
			math.Float64bits(a.V1[t]) != math.Float64bits(b.V1[t]) ||
			math.Float64bits(a.V2[t]) != math.Float64bits(b.V2[t]) {
			return fmt.Errorf("%w: slot %d: reward/V1/V2 %x/%x/%x vs %x/%x/%x", errInvariant, t,
				a.Reward[t], a.V1[t], a.V2[t], b.Reward[t], b.V1[t], b.V2[t])
		}
	}
	return nil
}

func runSimPaper(seed uint64, budget time.Duration) (*result, error) {
	stop := guardStalls("sim-paper")
	defer stop()
	st, err := simRun(seed, budget, size.simSeeds, false, nil)
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.gate("sim-paper: repeated seeds reproduce bit for bit", st.err)
	r.Attempted = int64(st.episodes * size.simEpisodeT)
	reportEndToEnd(r, st.setups, st.wins, st.steps, "per-slot sim.Run step", st.q)
	r.note("episodes %d of %d slots, %d seeds", st.episodes, size.simEpisodeT, size.simSeeds)
	return r, nil
}

// traceSimPaper runs untraced episodes for half the budget, then the same
// seeds traced for the other half. The traced run must reproduce the
// untraced rewards bit for bit.
func traceSimPaper(seed uint64, budget time.Duration) (*result, error) {
	stop := guardStalls("sim-paper traced")
	defer stop()
	mem := readMem()
	plain, err := simRun(seed, budget/2, 1, false, nil)
	if err != nil {
		return nil, err
	}
	allocKB, gcs := mem.perSlot(plain.episodes * size.simEpisodeT)
	traced, err := simRun(seed, budget/2, 1, true, plain.first)
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.gate("sim-paper untraced: repeated seeds reproduce bit for bit", plain.err)
	r.gate("sim-paper traced: wrapped policy reproduces untraced sim.Run bit for bit", traced.err)
	r.Attempted = int64((plain.episodes + traced.episodes) * size.simEpisodeT)

	var wall time.Duration
	for _, w := range traced.wins {
		wall += w.wall
	}
	plainRate, _ := windowMedians(plain.wins)
	tracedRate, _ := windowMedians(traced.wins)
	cs := traced.core
	n := float64(cs.slots)
	l := layerSet{}
	l.trace = ms(traced.gen) / n
	l.setCore(cs)
	l.simSelf = (ms(wall) - ms(traced.gen) - ms(cs.busy())) / n
	l.allocKB, l.gcPer1k = allocKB, gcs
	l.untracedMS = 1000 / plainRate
	l.tracedRate, l.untracedRate = tracedRate, plainRate
	l.selfTimes = []namedMS{
		{"trace.next", l.trace}, {"core.decide_local", l.decideLocal}, {"core.resolve", l.resolve},
		{"core.observe", l.observe}, {"sim.self", l.simSelf},
	}
	l.report(r, "sim-paper")
	return r, nil
}
