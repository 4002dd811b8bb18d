package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lfsc/internal/core"
	"lfsc/internal/policy"
	"lfsc/internal/serve"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// This file holds the spans the benchmark records around calls into each
// module's public functions: the program itself is not instrumented.

// progress is the wall-clock time (UnixNano) of the last completed
// operation; the stall guard aborts the run when it stops moving.
var progress atomic.Int64

func tick() { progress.Store(time.Now().UnixNano()) }

// stallLimit bounds how long any single operation may take before the run
// is declared stuck (a desynchronised client waits on a slot that never
// closes). serve.Client's own timeout is 30 s, far too long for that.
const stallLimit = 10 * time.Second

// guardStalls starts the stall guard; stop it before returning.
func guardStalls(what string) (stop func()) {
	tick()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				if idle := now.Sub(time.Unix(0, progress.Load())); idle > stallLimit {
					fmt.Fprintf(os.Stderr, "perfbench: %s: no operation completed for %v; aborting\n", what, idle.Round(time.Millisecond))
					os.Exit(3)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// slotGen wraps the workload generator handed to sim.Run. It keeps the
// pooled trace.IntoGenerator path (sim.Run type-asserts for it) and
// records, per slot, the time NextInto was entered (marks, for slot-step
// latency) and, when busy is non-nil, the time spent generating.
type slotGen struct {
	*trace.Synthetic
	marks []time.Time
	busy  *time.Duration
}

func (g *slotGen) NextInto(t int, s *trace.Slot) {
	start := time.Now()
	g.marks = append(g.marks, start)
	g.Synthetic.NextInto(t, s)
	if g.busy != nil {
		*g.busy += time.Since(start)
	}
}

// coreSpans accumulates the learner's per-stage busy time and counts.
type coreSpans struct {
	decideLocal, resolve, observe time.Duration
	edges, assigned               int64
	slots                         int
}

func (c *coreSpans) add(o coreSpans) {
	c.decideLocal += o.decideLocal
	c.resolve += o.resolve
	c.observe += o.observe
	c.edges += o.edges
	c.assigned += o.assigned
	c.slots += o.slots
}

func (c *coreSpans) busy() time.Duration { return c.decideLocal + c.resolve + c.observe }

// tracedLFSC is LFSC split into its public stages: a one-shard partial
// learner owning every SCN runs the per-SCN stage (DecideLocal) and a
// Merger runs the cross-SCN resolution — the same code LFSC.Decide runs,
// so decisions are bit-identical and each stage can be timed on its own.
type tracedLFSC struct {
	l     *core.LFSC
	merge *core.Merger
	sp    *coreSpans
}

// newTracedLFSC builds the learner with sim.LFSCFactory's configuration;
// horizon and kmax override the schedule inputs when positive (a serving
// engine's schedule horizon and KMax differ from the simulated run's).
func newTracedLFSC(rc *sim.RunContext, sp *coreSpans, horizon, kmax int) (*tracedLFSC, error) {
	cfg := core.Config{
		SCNs:     rc.Gen.SCNs(),
		Capacity: rc.Cfg.Capacity,
		Alpha:    rc.Cfg.Alpha,
		Beta:     rc.Cfg.Beta,
		Cells:    rc.Partition.Cells(),
		KMax:     rc.Gen.MaxPerSCN(),
		Horizon:  rc.Cfg.T,
	}
	if horizon > 0 {
		cfg.Horizon = horizon
	}
	if kmax > 0 {
		cfg.KMax = kmax
	}
	owned := make([]int, cfg.SCNs)
	for m := range owned {
		owned[m] = m
	}
	l, err := core.NewPartial(cfg, rc.Rng, owned)
	if err != nil {
		return nil, err
	}
	g, err := core.NewMerger(cfg, []*core.LFSC{l}, make([]int, cfg.SCNs))
	if err != nil {
		return nil, err
	}
	return &tracedLFSC{l: l, merge: g, sp: sp}, nil
}

func (p *tracedLFSC) Name() string { return "LFSC" }

func (p *tracedLFSC) Decide(view *policy.SlotView) []int {
	t0 := time.Now()
	p.l.DecideLocal(view)
	p.sp.decideLocal += time.Since(t0)
	// Edges are the slot's (task, SCN) coverage pairs the per-SCN stage
	// scores. ExportEdges cannot count them: under the default DepRound
	// selection the per-SCN candidates are sampled sets, not edge lists,
	// and it returns nil for every SCN.
	for m := range view.SCNs {
		p.sp.edges += int64(len(view.SCNs[m].Cover))
	}
	t1 := time.Now()
	a := p.merge.Resolve(view)
	p.sp.resolve += time.Since(t1)
	for _, m := range a {
		if m >= 0 {
			p.sp.assigned++
		}
	}
	p.sp.slots++
	return a
}

func (p *tracedLFSC) Observe(view *policy.SlotView, assigned []int, fb *policy.Feedback) {
	t0 := time.Now()
	p.l.Observe(view, assigned, fb)
	p.sp.observe += time.Since(t0)
}

// engineConn drives an in-process engine through the serve.Conn interface,
// so a Replayer can replay the exact requests of an HTTP pass without the
// wire and transport.
type engineConn struct{ e *serve.Engine }

func (c engineConn) SubmitInto(req *serve.SubmitRequest, resp *serve.SubmitResponse) error {
	r, err := c.e.Submit(req)
	if err != nil {
		return err
	}
	*resp = *r
	return nil
}

func (c engineConn) Report(req *serve.ReportRequest) (*serve.ReportResponse, error) {
	return c.e.Report(req)
}

func (c engineConn) StepInto(repSlot int, reports []serve.TaskReport, tasks []serve.TaskSpec, close bool, resp *serve.StepResponse) error {
	return c.e.StepInto(&serve.StepRequest{Slot: repSlot, Reports: reports, Tasks: tasks, Close: close}, resp)
}

// relay is a loopback TCP forwarder that counts the bytes each way. The
// traced runs send a short stretch of requests through it to measure
// request and response sizes on the wire.
type relay struct {
	ln       net.Listener
	target   string
	up, down atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    []net.Conn
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay: %w", err)
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(s, c, &r.up)
		go r.pipe(c, s, &r.down)
	}
}

func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		k, err := src.Read(buf)
		if k > 0 {
			n.Add(int64(k))
			if _, werr := dst.Write(buf[:k]); werr != nil {
				return
			}
		}
		if err != nil {
			return // io.EOF or a closed connection ends the stream
		}
	}
}

// close stops the relay and waits for its goroutines.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
