package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/hypercube"
	"lfsc/internal/rng"
	"lfsc/internal/serve"
	"lfsc/internal/sim"
	"lfsc/internal/task"
	"lfsc/internal/trace"
)

// serve-fanin: two client connections per slot against an in-process
// daemon with lfscd's default observability stack. Each connection owns
// 15 of the 30 SCNs, with a fixed 5 tasks per SCN (overlap 0.3); it
// submits its half with /v1/submit (no close) and reports its own outcomes
// with /v1/report. One goroutine drives both (see faninClient). MaxBatch = 150 closes the slot when the second half lands;
// KMax is lfscd's default 200 (at the generator's 2×5 a slot could close
// on one half alone and the clients would drift a slot apart). The engine
// checkpoints every 100 slots into a directory under scratchRoot.
const (
	faninSCNs     = 30
	faninPerSCN   = 5
	faninClients  = 2
	faninHalf     = faninSCNs * faninPerSCN / faninClients
	faninBatch    = faninSCNs * faninPerSCN
	faninCapacity = 3
	faninAlpha    = 1
	faninBeta     = 5
	faninKMax     = 200
	faninCkpt     = 100
)

// scratchRoot holds the checkpoint directories; it is relative to the
// working directory, which is the checkout the benchmark runs in.
var scratchRoot = filepath.Join(".bench_build", "tmp")

func faninSynth() trace.SyntheticConfig {
	return trace.SyntheticConfig{SCNs: faninSCNs, MinTasks: faninPerSCN, MaxTasks: faninPerSCN,
		Overlap: 0.3, LatencySensitiveFrac: 0.5}
}

// faninConfig is the engine configuration; ckptDir "" disables
// checkpointing.
func faninConfig(seed uint64, ckptDir string) serve.Config {
	cfg := serve.Config{
		SCNs: faninSCNs, Capacity: faninCapacity, Alpha: faninAlpha, Beta: faninBeta,
		Dims: task.ContextDims, H: 3, KMax: faninKMax, Horizon: serveHorizon, Seed: seed,
		MaxBatch: faninBatch,
	}
	if ckptDir != "" {
		cfg.CheckpointPath = filepath.Join(ckptDir, "lfscd.ckpt")
		cfg.CheckpointEvery = faninCkpt
	}
	withObs(&cfg)
	return cfg
}

// slotRec is one connection's record of one slot.
type slotRec struct {
	slot, base, n       int
	send                time.Time     // when the submission was sent
	submit, report, all time.Duration // round trips and the whole slot
	reward              float64
	completed, consumed [faninSCNs]float64
	counts              [faninSCNs]int
}

// faninPeer is one client connection; it owns half the tasks of a slot.
type faninPeer struct {
	conn     serve.Conn
	lo       int // first task index of the half
	specs    []serve.TaskSpec
	lists    [][]int
	cells    []int
	resp     serve.SubmitResponse
	reports  []serve.TaskReport
	requests int64
	rec      slotRec
	err      error
}

// faninClient drives both connections from one goroutine; a second
// goroutine only holds the first half's /v1/submit open, which must be in
// flight when the second half lands. The client generates each slot once
// from the shared seed (generator Derive(1), environment Derive(2),
// realisation root Derive(4), as sim.Run derives them) and realises
// outcomes from streams labelled by SCN and generator task index, so
// draws do not depend on which half the daemon admitted first. Client
// work stays serial, so the load needs about one core and the daemon the
// rest.
type faninClient struct {
	gen      *trace.Synthetic
	env      *env.Env
	part     *hypercube.Partition
	realRoot *rng.Stream
	peers    [faninClients]*faninPeer

	next int
	slot trace.Slot
	ctx  []float64
	lat  *[]float64 // timed /v1/submit round trips, ms; nil while warming up
	done chan struct{}
}

func newFaninClient(seed uint64, conns [faninClients]serve.Conn) (*faninClient, error) {
	master := rng.New(seed)
	gen, err := trace.NewSynthetic(faninSynth(), master.Derive(1))
	if err != nil {
		return nil, err
	}
	part, err := hypercube.New(task.ContextDims, 3)
	if err != nil {
		return nil, err
	}
	envCfg := env.DefaultConfig(faninSCNs, part.Cells())
	e, err := env.New(envCfg, master.Derive(2))
	if err != nil {
		return nil, err
	}
	c := &faninClient{gen: gen, env: e, part: part, realRoot: master.Derive(4), done: make(chan struct{})}
	for i, conn := range conns {
		c.peers[i] = &faninPeer{conn: conn, lo: i * faninHalf, lists: make([][]int, faninHalf),
			cells: make([]int, faninHalf), specs: make([]serve.TaskSpec, faninHalf)}
	}
	return c, nil
}

// requests returns the requests sent on both connections.
func (c *faninClient) requests() int64 {
	var n int64
	for _, p := range c.peers {
		n += p.requests
	}
	return n
}

// step plays one slot: generate it, submit both halves, check and realise
// the decisions, report each half on its own connection.
func (c *faninClient) step() error {
	t := c.next
	c.next++
	start := time.Now()
	c.env.Advance(t)
	c.gen.NextInto(t, &c.slot)
	if len(c.slot.Tasks) != faninBatch {
		return fmt.Errorf("%w: slot %d has %d tasks, want %d", errInvariant, t, len(c.slot.Tasks), faninBatch)
	}
	c.ctx = c.ctx[:0]
	for i := range c.slot.Tasks {
		c.ctx = c.slot.Tasks[i].AppendContext(c.ctx, false)
	}
	for _, p := range c.peers {
		p.rec = slotRec{}
		p.prepare(&c.slot, c.ctx, c.part)
	}
	first := c.peers[0]
	go func() {
		first.submit(t)
		c.done <- struct{}{}
	}()
	c.peers[1].submit(t)
	<-c.done
	for _, p := range c.peers {
		if p.err != nil {
			return p.err
		}
		if c.lat != nil {
			*c.lat = append(*c.lat, ms(p.rec.submit))
		}
	}
	var slotReal rng.Stream
	c.realRoot.DeriveInto(uint64(t), &slotReal)
	for _, p := range c.peers {
		if err := p.realiseAndReport(c, t, &slotReal); err != nil {
			return err
		}
	}
	all := time.Since(start)
	for _, p := range c.peers {
		p.rec.all = all
	}
	return nil
}

// prepare fills the half's task specs from the generated slot.
func (p *faninPeer) prepare(slot *trace.Slot, ctx []float64, part *hypercube.Partition) {
	for i := range p.lists {
		p.lists[i] = p.lists[i][:0]
	}
	for m, cov := range slot.Coverage {
		for _, idx := range cov {
			if idx >= p.lo && idx < p.lo+faninHalf {
				p.lists[idx-p.lo] = append(p.lists[idx-p.lo], m)
			}
		}
	}
	d := task.ContextDims
	for i := range p.specs {
		x := ctx[(p.lo+i)*d : (p.lo+i+1)*d : (p.lo+i+1)*d]
		p.specs[i] = serve.TaskSpec{Ctx: x, SCNs: p.lists[i]}
		p.cells[i] = part.Index(task.Context(x))
	}
}

// submit sends the half with /v1/submit and checks the decision; it
// returns when the slot has closed.
func (p *faninPeer) submit(t int) {
	p.rec.send = time.Now()
	p.err = p.conn.SubmitInto(&serve.SubmitRequest{Tasks: p.specs}, &p.resp)
	p.rec.submit = time.Since(p.rec.send)
	p.requests++
	tick()
	if p.err != nil {
		p.err = fmt.Errorf("slot %d submit: %w", t, p.err)
		return
	}
	p.rec.slot, p.rec.base, p.rec.n = p.resp.Slot, p.resp.Base, len(p.resp.Assigned)
	p.err = checkHalf(t, p.specs, &p.resp)
}

// realiseAndReport draws the outcome of every task the daemon assigned in
// this half and reports them on the half's own connection.
func (p *faninPeer) realiseAndReport(c *faninClient, t int, slotReal *rng.Stream) error {
	var taskReal rng.Stream
	rec := &p.rec
	p.reports = p.reports[:0]
	for i, m := range p.resp.Assigned {
		if m < 0 {
			continue
		}
		rec.counts[m]++
		slotReal.DeriveInto(uint64(m)<<32|uint64(p.lo+i), &taskReal)
		out := c.env.Draw(m, p.cells[i], &taskReal)
		rec.reward += out.Compound()
		rec.completed[m] += out.V()
		rec.consumed[m] += out.Q
		p.reports = append(p.reports, serve.TaskReport{Task: p.resp.Base + i, U: out.U, V: out.V(), Q: out.Q})
	}
	if len(p.reports) == 0 {
		return nil
	}
	r0 := time.Now()
	ack, err := p.conn.Report(&serve.ReportRequest{Slot: p.resp.Slot, Reports: p.reports})
	rec.report = time.Since(r0)
	p.requests++
	tick()
	if err != nil {
		return fmt.Errorf("slot %d report: %w", t, err)
	}
	if ack.Accepted != len(p.reports) {
		return fmt.Errorf("%w: slot %d: daemon accepted %d of %d reports", errInvariant, t, ack.Accepted, len(p.reports))
	}
	return nil
}

// checkHalf checks one client's decision: one assignment per submitted
// task, each -1 or an SCN the task listed, in the slot the client expects.
func checkHalf(t int, specs []serve.TaskSpec, resp *serve.SubmitResponse) error {
	if resp.Slot != t {
		return fmt.Errorf("%w: submission for slot %d decided in slot %d", errInvariant, t, resp.Slot)
	}
	if len(resp.Assigned) != len(specs) {
		return fmt.Errorf("%w: slot %d: %d assignments for %d tasks", errInvariant, t, len(resp.Assigned), len(specs))
	}
	for i, m := range resp.Assigned {
		if m < 0 {
			continue
		}
		listed := false
		for _, s := range specs[i].SCNs {
			listed = listed || s == m
		}
		if !listed {
			return fmt.Errorf("%w: slot %d: task %d assigned to SCN %d outside its list %v", errInvariant, t, i, m, specs[i].SCNs)
		}
	}
	return nil
}

// checkSlot checks the two halves of one slot together: both decided in
// the same slot, their task ranges tile [0, 150) exactly once, and no SCN
// took more than c tasks.
func checkSlot(a, b *slotRec, capacity int) error {
	if a.slot != b.slot {
		return fmt.Errorf("%w: halves decided in slots %d and %d", errInvariant, a.slot, b.slot)
	}
	first, second := a, b
	if b.base < a.base {
		first, second = b, a
	}
	if first.base != 0 || second.base != first.n || first.n+second.n != faninBatch {
		return fmt.Errorf("%w: slot %d: halves at bases %d+%d and %d+%d do not tile %d tasks",
			errInvariant, a.slot, a.base, a.n, b.base, b.n, faninBatch)
	}
	for m := range a.counts {
		if k := a.counts[m] + b.counts[m]; k > capacity {
			return fmt.Errorf("%w: slot %d: SCN %d took %d tasks, capacity %d", errInvariant, a.slot, m, k, capacity)
		}
	}
	return nil
}

// faninSession is one fan-in session.
type faninSession struct {
	setup     time.Duration
	wins      []window
	q         quality
	slots     int
	requests  int64
	stats     serve.Stats
	err       error
	recs      [faninClients][]slotRec // kept only when keepRecs
	timedFrom int                     // first timed slot
}

// runChunk plays k slots and checks every slot's halves together.
func runChunk(c *faninClient, k int, s *faninSession, keepRecs bool) error {
	var completed, consumed [faninSCNs]float64
	for j := 0; j < k; j++ {
		if err := c.step(); err != nil {
			return err
		}
		a, b := &c.peers[0].rec, &c.peers[1].rec
		if err := checkSlot(a, b, faninCapacity); err != nil {
			return err
		}
		if a.slot < size.faninQualitySlots {
			for m := range completed {
				completed[m] = a.completed[m] + b.completed[m]
				consumed[m] = a.consumed[m] + b.consumed[m]
			}
			v1, v2 := slotViolations(completed[:], consumed[:], faninAlpha, faninBeta)
			s.q.add(1, a.reward+b.reward, v1, v2)
		}
		if keepRecs {
			s.recs[0] = append(s.recs[0], *a)
			s.recs[1] = append(s.recs[1], *b)
		}
		s.slots++
	}
	return nil
}

// faninOpts selects a session's variant.
type faninOpts struct {
	ckpt      bool // checkpoint every faninCkpt slots
	inProcess bool // drive the engine directly instead of over HTTP
	keepRecs  bool // keep every slot record (traced runs)
	minSlots  int  // play at least this many slots
	maxSlots  int  // stop after this many slots (0: no limit)
	wire      *layerSet
	lat       *[]float64 // receives the timed submit round trips
}

// runFaninSession boots a daemon, warms it up, plays for dur, stops the
// daemon and checks its counters against what the clients sent.
func runFaninSession(seed uint64, dur time.Duration, o faninOpts) *faninSession {
	s := &faninSession{}
	t0 := time.Now()
	ckptDir := ""
	if o.ckpt {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			s.err = err
			return s
		}
		dir, err := os.MkdirTemp(scratchRoot, "fanin-ckpt-")
		if err != nil {
			s.err = err
			return s
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	}
	cfg := faninConfig(seed, ckptDir)
	var eng *serve.Engine
	var srv *serve.Server
	var err error
	if o.inProcess {
		eng, err = serve.NewEngine(cfg)
		if err == nil {
			eng.Start()
		}
	} else {
		var d *daemon
		d, err = startDaemon(cfg)
		if err == nil {
			eng, srv = d.eng, d.srv
			defer srv.Close()
		}
	}
	if err != nil {
		s.err = err
		return s
	}
	var conns [faninClients]serve.Conn
	for i := range conns {
		conns[i] = engineConn{eng}
		if srv != nil {
			conns[i] = serve.NewClient(srv.Addr())
		}
	}
	cl, err := newFaninClient(seed, conns)
	if err != nil {
		s.err = err
		eng.Stop()
		return s
	}
	s.err = runChunk(cl, size.faninWarmup, s, false)
	s.setup = time.Since(t0)
	s.timedFrom = s.slots
	cl.lat = o.lat
	start := time.Now()
	for s.err == nil && (time.Since(start) < dur || s.slots < o.minSlots) && (o.maxSlots == 0 || s.slots < o.maxSlots) {
		w0, c0 := time.Now(), cpuTime()
		s.err = runChunk(cl, size.faninChunk, s, o.keepRecs)
		s.wins = append(s.wins, window{slots: size.faninChunk, wall: time.Since(w0), cpu: cpuTime() - c0})
	}
	if o.wire != nil && s.err == nil {
		s.err = faninWire(cl, srv, s, o.wire)
	}
	eng.Stop()
	s.stats = eng.Stats()
	s.requests = cl.requests()
	if s.err == nil {
		s.err = checkCounters(s.stats, s.slots)
	}
	return s
}

// checkCounters checks the daemon's counters after a session: exactly the
// played slots were served, and every submitted task was decided once.
func checkCounters(st serve.Stats, slots int) error {
	want := uint64(slots * faninBatch)
	if st.SlotsServed != uint64(slots) || st.SubmittedTasks != want || st.DecidedTasks != want {
		return fmt.Errorf("%w: daemon served %d slots, took %d tasks, decided %d; clients played %d slots of %d tasks",
			errInvariant, st.SlotsServed, st.SubmittedTasks, st.DecidedTasks, slots, faninBatch)
	}
	return nil
}

// faninWire plays one chunk through a byte-counting relay on both clients
// and times empty /v1/stats round trips.
func faninWire(cl *faninClient, srv *serve.Server, s *faninSession, lay *layerSet) error {
	rl, err := newRelay(srv.Addr())
	if err != nil {
		return err
	}
	for _, p := range cl.peers {
		p.conn = serve.NewClient(rl.addr())
	}
	err = runChunk(cl, size.faninChunk, s, false)
	rl.close()
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	lay.reqKB = float64(rl.up.Load()) / 1024 / float64(size.faninChunk)
	lay.respKB = float64(rl.down.Load()) / 1024 / float64(size.faninChunk)
	cli := serve.NewClient(srv.Addr())
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

// countFanin adds a session's requests and failures to the result.
func countFanin(r *result, s *faninSession) { countFailures(r, s.requests, s.stats, s.err) }

func runFanin(seed uint64, budget time.Duration) (*result, error) {
	stop := guardStalls("serve-fanin")
	defer stop()
	r := newResult()
	var setups []float64
	var lat []float64
	var wins []window
	var q quality
	for i, sd := range sim.Seeds(seed, size.faninSessions) {
		s := runFaninSession(sd, budget/time.Duration(size.faninSessions),
			faninOpts{ckpt: true, minSlots: size.faninQualitySlots, lat: &lat})
		countFanin(r, s)
		r.gate(fmt.Sprintf("serve-fanin session %d: every task decided once, feasible, all slots served", i), s.err)
		if s.err != nil {
			continue
		}
		setups = append(setups, s.setup.Seconds())
		wins = append(wins, s.wins...)
		q.merge(s.q)
	}
	reportEndToEnd(r, setups, wins, lat, "/v1/submit round trip", q)
	return r, nil
}

// faninSpans averages the per-slot spans of a traced session. The slot's
// critical path is the client's serial work, the later sender's submit
// round trip (which never waits for its peer) and both reports. The gap
// between the two sends is client work (the second encode) that the
// earlier sender's submit waits through; it is part of client.self.
func faninSpans(s *faninSession) (submit, report, self, gap float64) {
	a, b := s.recs[0], s.recs[1]
	n := float64(len(a))
	for j := range a {
		late, early := &a[j], &b[j]
		if early.send.After(late.send) {
			late, early = early, late
		}
		submit += ms(late.submit)
		report += ms(late.report + early.report)
		self += ms(late.all - late.submit - late.report - early.report)
		gap += ms(late.send.Sub(early.send))
	}
	return submit / n, report / n, self / n, gap / n
}

// traceFanin splits the budget into an untraced session (the reference
// slot time), traced sessions with and without checkpoints (per-slot
// spans; the difference in slot time is the checkpoint path), an
// in-process pass over the same protocol (the engine's share), and a
// sim.Run pass with the stage-timed learner on the same topology and
// schedule (the learner's share).
func traceFanin(seed uint64, budget time.Duration) (*result, error) {
	stop := guardStalls("serve-fanin traced")
	defer stop()
	r := newResult()
	var lay layerSet

	mem := readMem()
	plain := runFaninSession(seed, budget*3/10, faninOpts{ckpt: true})
	lay.allocKB, lay.gcPer1k = mem.perSlot(plain.slots)
	countFanin(r, plain)
	r.gate("serve-fanin untraced session", plain.err)

	traced := runFaninSession(seed, budget/4, faninOpts{ckpt: true, keepRecs: true, wire: &lay})
	countFanin(r, traced)
	r.gate("serve-fanin traced session with checkpoints", traced.err)
	noCkpt := runFaninSession(seed, budget/4, faninOpts{keepRecs: true})
	countFanin(r, noCkpt)
	r.gate("serve-fanin traced session without checkpoints", noCkpt.err)
	if plain.err != nil || traced.err != nil || noCkpt.err != nil {
		lay.report(r, "serve-fanin")
		return r, nil
	}
	// The in-process pass replays the traced session's warm-up and timed
	// slots; the relayed chunk after them is not timed.
	slots := traced.slots - size.faninChunk
	inproc := runFaninSession(seed, 0, faninOpts{ckpt: true, inProcess: true, keepRecs: true, minSlots: slots, maxSlots: slots})
	countFanin(r, inproc)
	r.gate("serve-fanin in-process engine pass", inproc.err)

	var cs coreSpans
	var gen time.Duration
	cfg := sim.Config{T: min(slots, 4000), Capacity: faninCapacity, Alpha: faninAlpha, Beta: faninBeta, H: 3}
	_, err := tracedSimPass(faninSynth(), cfg, seed, serveHorizon, faninKMax, &cs, &gen)
	r.gate("serve-fanin sim pass", err)
	r.Attempted += int64(cfg.T)

	lay.http, lay.reportMS, lay.clientSelf, lay.peerWait = faninSpans(traced)
	if inproc.err == nil {
		lay.engine, _, _, _ = faninSpans(inproc)
	}
	lay.setCore(cs)
	lay.trace = ms(gen) / float64(cfg.T)
	lay.engineSelf = lay.engine - ms(cs.busy())/float64(cs.slots)
	lay.wire = lay.http - lay.engine
	withCkpt, _ := windowMedians(traced.wins)
	without, _ := windowMedians(noCkpt.wins)
	lay.checkpoint = 1000/withCkpt - 1000/without
	lay.addStats(plain.stats, traced.stats, noCkpt.stats)
	lay.untracedRate, _ = windowMedians(plain.wins)
	lay.tracedRate = withCkpt
	lay.untracedMS = 1000 / lay.untracedRate
	lay.selfTimes = []namedMS{
		{"client.self", lay.clientSelf}, {"serve.report", lay.reportMS},
		{"serve.wire_transport", lay.wire}, {"serve.engine_self", lay.engineSelf},
		{"core.decide_local", lay.decideLocal}, {"core.resolve", lay.resolve}, {"core.observe", lay.observe},
	}
	r.note("trace.next %.4f ms/slot is part of client.self; serve.checkpoint %.4f ms/slot is part of the slot time; serve.peer_wait %.4f ms/slot is part of client.self",
		lay.trace, lay.checkpoint, lay.peerWait)
	lay.report(r, "serve-fanin")
	return r, nil
}
