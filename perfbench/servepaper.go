package main

import (
	"fmt"
	"math"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/metrics"
	"lfsc/internal/obs"
	"lfsc/internal/serve"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// serve-paper: lfscload-style lockstep serve.Replayer over one loopback
// connection, riding /v1/step, on the paper's topology with Shards=1 and
// no slot clock, against an in-process daemon (serve.NewEngine +
// serve.StartServer) with lfscd's default observability stack. A run is
// size.serveSessions sessions, each with its own seed derived from the run
// seed: the set-up (engine construction, server start, first connection,
// warm-up slots) is timed once per session, and the quality figures
// average the sessions' first size.serveQualitySlots slots.
const (
	serveHorizon = 10000 // lfscd's default schedule horizon (-T)
	serveWindow  = 50    // slots per measurement window
)

func paperReplay(seed uint64) serve.ReplayScenario {
	return serve.ReplayScenario{
		Synthetic: trace.DefaultSyntheticConfig(),
		EnvCfg:    env.DefaultConfig(30, 27),
		Capacity:  20, Alpha: 15, Beta: 27, H: 3,
		T:    serveHorizon,
		Seed: seed,
	}
}

// withObs installs lfscd's default observability stack: phase probe, run
// registry, Prometheus metrics, the 60 s SLO window with a 1% shed budget,
// and a 256-slot lifecycle ring.
func withObs(cfg *serve.Config) {
	cfg.Probe = obs.NewProbe()
	cfg.Registry = obs.NewRegistry()
	cfg.Metrics = obs.NewMetrics()
	cfg.SLO = obs.NewSLO(60, 0.01)
	cfg.SlotRing = obs.NewSlotRing(256, cfg.Shards)
}

// daemon is an in-process lfscd: engine plus HTTP server.
type daemon struct {
	eng *serve.Engine
	srv *serve.Server
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	eng, err := serve.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.StartServer("127.0.0.1:0", eng)
	if err != nil {
		return nil, err
	}
	eng.Start()
	return &daemon{eng: eng, srv: srv}, nil
}

// stepConn wraps the serve.Conn a Replayer drives. It times every call,
// keeps exact per-request latency samples, and computes the paper's
// per-slot reward, V1 and V2 from the client's own reports for slots
// below qSlots.
type stepConn struct {
	c           serve.Conn
	alpha, beta float64
	qSlots      int

	lat      []float64     // /v1/step round trips, ms
	stepBusy time.Duration // time inside StepInto
	repBusy  time.Duration // time inside Report
	requests int64

	assigned            []int // the last decided slot's assignment
	completed, consumed []float64
	q                   quality
}

func newStepConn(c serve.Conn, sc serve.ReplayScenario, qSlots int) *stepConn {
	n := sc.Synthetic.SCNs
	return &stepConn{c: c, alpha: sc.Alpha, beta: sc.Beta, qSlots: qSlots,
		completed: make([]float64, n), consumed: make([]float64, n)}
}

// account folds one slot's reports into the quality totals.
func (s *stepConn) account(slot int, reports []serve.TaskReport) {
	if len(reports) == 0 || slot >= s.qSlots {
		return
	}
	for m := range s.completed {
		s.completed[m], s.consumed[m] = 0, 0
	}
	reward := 0.0
	for _, rp := range reports {
		m := s.assigned[rp.Task]
		s.completed[m] += rp.V
		s.consumed[m] += rp.Q
		if rp.V == 1 && rp.Q > 0 {
			reward += rp.U / rp.Q
		}
	}
	v1, v2 := slotViolations(s.completed, s.consumed, s.alpha, s.beta)
	s.q.add(1, reward, v1, v2)
}

func (s *stepConn) StepInto(repSlot int, reports []serve.TaskReport, tasks []serve.TaskSpec, close bool, resp *serve.StepResponse) error {
	s.account(repSlot, reports)
	t0 := time.Now()
	err := s.c.StepInto(repSlot, reports, tasks, close, resp)
	d := time.Since(t0)
	s.stepBusy += d
	s.lat = append(s.lat, ms(d))
	s.requests++
	tick()
	if err == nil {
		s.assigned = append(s.assigned[:0], resp.Assigned...)
	}
	return err
}

func (s *stepConn) Report(req *serve.ReportRequest) (*serve.ReportResponse, error) {
	s.account(req.Slot, req.Reports)
	t0 := time.Now()
	resp, err := s.c.Report(req)
	s.repBusy += time.Since(t0)
	s.requests++
	tick()
	return resp, err
}

func (s *stepConn) SubmitInto(req *serve.SubmitRequest, resp *serve.SubmitResponse) error {
	s.requests++
	return s.c.SubmitInto(req, resp)
}

// replaySession is one serve-paper session.
type replaySession struct {
	setup   time.Duration
	wins    []window
	lat     []float64
	conn    *stepConn
	slots   int     // slots replayed in total
	timed   int     // slots in the timed region
	cum     float64 // client cumulative reward after the timed region
	stepDur time.Duration
	connDur time.Duration
	stats   serve.Stats
	err     error // first failed operation, if any
}

// replayTo steps the replayer until it has replayed `to` slots. A shed
// slot is a failed request: the lockstep replay cannot recover from it.
func replayTo(rep *serve.Replayer, c serve.Conn, to int) error {
	for rep.Slot() < to {
		res, err := rep.Step(c)
		if err != nil {
			return err
		}
		if res.Shed {
			return &serve.ErrShed{Msg: fmt.Sprintf("slot %d", res.Slot)}
		}
	}
	return nil
}

// runReplaySession boots a daemon, warms it up, and replays for dur (and
// at least until the quality slots are reported), timing each window and
// the Conn calls inside it. A non-nil lay (the traced run) also receives
// the wire sizes and transport floor from measureWire.
func runReplaySession(seed uint64, dur time.Duration, lay *layerSet) *replaySession {
	s := &replaySession{}
	t0 := time.Now()
	sc := paperReplay(seed)
	cfg, err := sc.EngineConfig()
	if err != nil {
		s.err = err
		return s
	}
	withObs(&cfg)
	d, err := startDaemon(cfg)
	if err != nil {
		s.err = err
		return s
	}
	defer d.srv.Close()
	rep, err := serve.NewReplayer(sc)
	if err != nil {
		s.err = err
		d.eng.Stop()
		return s
	}
	s.conn = newStepConn(serve.NewClient(d.srv.Addr()), sc, size.serveQualitySlots)
	if s.err = replayTo(rep, s.conn, size.serveWarmup); s.err != nil {
		d.eng.Stop()
		return s
	}
	s.setup = time.Since(t0)
	latFrom := len(s.conn.lat)
	start := time.Now()
	for s.err == nil && (time.Since(start) < dur || rep.Slot() <= size.serveQualitySlots) {
		w0, c0 := time.Now(), cpuTime()
		busy0 := s.conn.stepBusy
		s.err = replayTo(rep, s.conn, rep.Slot()+serveWindow)
		w := window{slots: serveWindow, wall: time.Since(w0), cpu: cpuTime() - c0}
		s.wins = append(s.wins, w)
		s.stepDur += w.wall
		s.connDur += s.conn.stepBusy - busy0
		s.timed += serveWindow
	}
	s.lat = s.conn.lat[latFrom:]
	s.cum = rep.CumReward()
	if lay != nil && s.err == nil {
		s.err = measureWire(d, rep, sc, lay)
	}
	if s.err == nil {
		s.err = rep.Flush(s.conn)
	}
	s.slots = rep.Slot()
	d.eng.Stop()
	s.stats = d.eng.Stats()
	if s.err == nil {
		s.err = gateIdentity("client", rep.CumReward(), "daemon", d.eng.CumReward())
	}
	return s
}

// measureWire sends serveWindow slots through a byte-counting relay
// (request and response KB per slot) and times 200 empty /v1/stats round
// trips (the transport floor).
func measureWire(d *daemon, rep *serve.Replayer, sc serve.ReplayScenario, lay *layerSet) error {
	rl, err := newRelay(d.srv.Addr())
	if err != nil {
		return err
	}
	rc := newStepConn(serve.NewClient(rl.addr()), sc, 0)
	err = replayTo(rep, rc, rep.Slot()+serveWindow)
	// The last relayed slot's reports still travel through the relay.
	if err == nil {
		err = rep.Flush(rc)
	}
	rl.close()
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	lay.reqKB = float64(rl.up.Load()) / 1024 / serveWindow
	lay.respKB = float64(rl.down.Load()) / 1024 / serveWindow
	cli := serve.NewClient(d.srv.Addr())
	var rtts []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := cli.Stats(); err != nil {
			return err
		}
		rtts = append(rtts, ms(time.Since(t0)))
	}
	lay.rttFloor = median(rtts)
	return nil
}

// gateIdentity requires two cumulative rewards to agree bit for bit.
func gateIdentity(an string, a float64, bn string, b float64) error {
	if math.Float64bits(a) != math.Float64bits(b) {
		return fmt.Errorf("%w: %s cumulative reward %x != %s %x (%.10f vs %.10f)", errInvariant, an, a, bn, b, a, b)
	}
	return nil
}

func runServePaper(seed uint64, budget time.Duration) (*result, error) {
	stop := guardStalls("serve-paper")
	defer stop()
	r := newResult()
	var setups, lat []float64
	var wins []window
	var q quality
	for i, sd := range sim.Seeds(seed, size.serveSessions) {
		s := runReplaySession(sd, budget/time.Duration(size.serveSessions), nil)
		countReplay(r, s)
		r.gate(fmt.Sprintf("serve-paper session %d: client reward == Engine.CumReward() bit for bit, no failed request", i), s.err)
		if s.err != nil {
			continue
		}
		setups = append(setups, s.setup.Seconds())
		wins = append(wins, s.wins...)
		lat = append(lat, s.lat...)
		q.merge(s.conn.q)
	}
	reportEndToEnd(r, setups, wins, lat, "/v1/step round trip", q)
	return r, nil
}

// countReplay adds a session's requests and failures to the result.
func countReplay(r *result, s *replaySession) {
	var requests int64
	if s.conn != nil {
		requests = s.conn.requests
	}
	countFailures(r, requests, s.stats, s.err)
}

// traceServePaper splits the budget into an untraced session (the
// reference slot time), a traced HTTP session (client self time and the
// /v1/step round trip per slot, then a relayed stretch for bytes and the
// transport floor), an in-process engine pass over the same requests, and
// a sim.Run pass with the stage-timed learner over the same slots (the
// learner's share; its decisions must match the daemon's bit for bit).
func traceServePaper(seed uint64, budget time.Duration) (*result, error) {
	stop := guardStalls("serve-paper traced")
	defer stop()
	r := newResult()
	var lay layerSet

	mem := readMem()
	plain := runReplaySession(seed, budget*3/10, nil)
	lay.allocKB, lay.gcPer1k = mem.perSlot(plain.timed)
	countReplay(r, plain)
	r.gate("serve-paper untraced session: client == daemon, no failed request", plain.err)

	httpPass := runReplaySession(seed, budget*3/10, &lay)
	countReplay(r, httpPass)
	r.gate("serve-paper traced session: client == daemon, no failed request", httpPass.err)
	if plain.err != nil || httpPass.err != nil {
		lay.report(r, "serve-paper")
		return r, nil
	}
	slots := size.serveWarmup + httpPass.timed

	// In-process engine pass over the same slots and requests.
	sc := paperReplay(seed)
	cfg, err := sc.EngineConfig()
	if err != nil {
		return nil, err
	}
	withObs(&cfg)
	eng, err := serve.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	eng.Start()
	rep, err := serve.NewReplayer(sc)
	if err != nil {
		return nil, err
	}
	ec := newStepConn(engineConn{eng}, sc, 0)
	err = replayTo(rep, ec, size.serveWarmup)
	busy0 := ec.stepBusy
	if err == nil {
		err = replayTo(rep, ec, slots)
	}
	engineBusy := ec.stepBusy - busy0
	engineCum := rep.CumReward()
	eng.Stop()
	r.Attempted += ec.requests
	r.gate("serve-paper engine pass: in-process replay == HTTP replay bit for bit",
		firstErr(err, gateIdentity("in-process", engineCum, "http", httpPass.cum)))

	// sim.Run pass with the stage-timed learner and generator.
	var cs coreSpans
	var gen time.Duration
	series, err := serveSimPass(seed, slots, &cs, &gen)
	r.Attempted += int64(slots)
	offline := 0.0
	if err == nil {
		for _, v := range series.Reward {
			offline += v
		}
	}
	r.gate("serve-paper sim pass: offline sim.Run == client == daemon bit for bit",
		firstErr(err, gateIdentity("offline sim.Run", offline, "client", httpPass.cum)))

	n := float64(httpPass.timed)
	lay.http = ms(httpPass.connDur) / n
	lay.clientSelf = (ms(httpPass.stepDur) - ms(httpPass.connDur)) / n
	lay.reportMS = ms(httpPass.conn.repBusy) / float64(httpPass.slots)
	lay.engine = ms(engineBusy) / n
	lay.setCore(cs)
	lay.trace = ms(gen) / float64(cs.slots)
	coreMS := ms(cs.busy()) / float64(cs.slots)
	lay.engineSelf = lay.engine - coreMS
	lay.wire = lay.http - lay.engine
	lay.addStats(plain.stats, httpPass.stats)
	lay.untracedRate, _ = windowMedians(plain.wins)
	lay.tracedRate, _ = windowMedians(httpPass.wins)
	lay.untracedMS = 1000 / lay.untracedRate
	lay.selfTimes = []namedMS{
		{"client.self", lay.clientSelf}, {"serve.wire_transport", lay.wire}, {"serve.engine_self", lay.engineSelf},
		{"core.decide_local", lay.decideLocal}, {"core.resolve", lay.resolve}, {"core.observe", lay.observe},
	}
	r.note("trace.next %.4f ms/slot is part of client.self", lay.trace)
	lay.report(r, "serve-paper")
	return r, nil
}

// serveSimPass runs sim.Run over the serve-paper workload for T slots with
// the stage-timed learner on the daemon's schedule (horizon serveHorizon,
// KMax from the generator, as serve.ReplayScenario.EngineConfig sets it),
// so its decisions are the daemon's.
func serveSimPass(seed uint64, T int, cs *coreSpans, gen *time.Duration) (*metrics.Series, error) {
	cfg := paperConfig(T)
	return tracedSimPass(trace.DefaultSyntheticConfig(), cfg, seed, serveHorizon, 0, cs, gen)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
