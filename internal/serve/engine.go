package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lfsc/internal/core"
	"lfsc/internal/hypercube"
	"lfsc/internal/obs"
	"lfsc/internal/policy"
	"lfsc/internal/scenario"
	"lfsc/internal/task"
)

// Config parameterises the serving engine. The learner/topology block
// must match what the clients believe (a replaying load generator built
// from the same scenario and seed produces bit-identical decisions to an
// offline sim.Run — see ReplayScenario); the serving block tunes the
// batcher and backpressure.
type Config struct {
	// Learner / topology. Seed feeds the same master-stream derivation the
	// simulator uses: the policy's RNG is rng.New(Seed).Derive(3).
	SCNs     int
	Capacity int
	Alpha    float64
	Beta     float64
	Dims     int // context dimensionality (task.ContextDims, +1 with latency class)
	H        int // hypercube granularity h_T
	KMax     int // bound on per-SCN visible tasks per slot
	Horizon  int // schedule horizon T
	Seed     uint64

	// Scenario, when set, imposes a timeline of SCN dynamics on serving
	// (see internal/scenario): each decided slot consults the timeline at
	// its own slot index, masking down SCNs out of the view (their
	// learner state freezes) and attaching per-SCN capacity and budget
	// vectors. The timeline must cover exactly SCNs cells; it is
	// immutable and read only under the engine mutex. Checkpoints
	// record the scenario digest and Restore refuses a mismatch, so a
	// resumed daemon replays the identical dynamics. Nil keeps the
	// static topology.
	Scenario *scenario.Timeline

	// Shards splits the learner across N partial learners (consistent-hash
	// SCN groups), run in parallel for the per-SCN stages of Decide and
	// Observe and joined by a k-way-merged resolution stage. 0 or 1 is a
	// single shard owning every SCN. Decisions are bit-identical at any
	// shard count; checkpoints are one file per shard plus a manifest at
	// CheckpointPath (see DESIGN.md §11).
	Shards int

	// Serving knobs.
	//
	// SlotEvery is the slot clock: a non-empty batch closes on each tick.
	// Zero disables the clock — slots then close only at KMax, MaxBatch,
	// or an explicit SubmitRequest.Close (lockstep replay).
	SlotEvery time.Duration
	// MaxBatch closes the slot once it holds at least this many tasks
	// (checked after each whole submission; submissions are never split
	// across slots). Zero defaults to SCNs*KMax, the structural bound.
	MaxBatch int
	// QueueCap bounds tasks accepted but not yet decided; submissions
	// that would exceed it are shed with 429. Zero defaults to 4*MaxBatch.
	QueueCap int
	// SubQueue bounds the backlog: whole submissions that arrived while
	// the accumulating batch could not take them (it is bound to close,
	// or they would push an SCN past KMax) and wait, in arrival order,
	// for the next batch. A submission that would join a full backlog is
	// shed with 429. Zero defaults to 64.
	SubQueue int
	// ReportWait bounds how long a decided slot stays open for outcome
	// reports before Observe runs with whatever arrived. Zero defaults
	// to 2s.
	ReportWait time.Duration

	// CheckpointPath enables checkpointing: the engine atomically writes
	// its state there every CheckpointEvery slots and on graceful Stop.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval in slots
	// (0 = only on Stop).
	CheckpointEvery int

	// Observability (all optional, nil-safe). Probe records the engine's
	// slot phases (view/decide/realize/observe/snapshot); Registry makes
	// the serving run visible on /lfsc/status and expvar.
	Probe    *obs.Probe
	Registry *obs.Registry
	// SnapshotEvery > 0 emits a policy snapshot to SnapshotSink every
	// that many slots (JSONL events, mirroring the simulator's -snapshots).
	SnapshotEvery int
	SnapshotSink  obs.SnapshotSink
	// Metrics, when set, receives the engine's Prometheus metric
	// families at NewEngine (per-endpoint latency histograms, pipeline
	// counters, per-shard routing/shed/straggler series, SLO gauges) and
	// backs the HTTP server's /metrics endpoint. Scrapes read the same
	// atomics the engine already maintains — enabling metrics adds no
	// hot-path work, so instrumented serving stays bit-identical and at
	// 0 allocs/request.
	Metrics *obs.Metrics
	// SlotRing, when set, records one lifecycle span per served slot
	// (view/decide/merge/report-wait/observe/checkpoint durations plus
	// the per-shard breakdown of the parallel stages), exposed at
	// /lfsc/slots. Build it with obs.NewSlotRing(n, Shards).
	SlotRing *obs.SlotRing
	// SLO, when set, tracks rolling-window request-latency percentiles
	// and the shed rate (obs.NewSLO), surfaced in /metrics, /lfsc/status
	// and /v1/stats. Requests are recorded once they pass validation —
	// the served traffic the SLO is about.
	SLO *obs.SLO
}

func (c *Config) withDefaults() Config {
	cp := *c
	if cp.Dims == 0 {
		cp.Dims = task.ContextDims
	}
	if cp.MaxBatch <= 0 {
		cp.MaxBatch = cp.SCNs * cp.KMax
	}
	if cp.QueueCap <= 0 {
		cp.QueueCap = 4 * cp.MaxBatch
	}
	if cp.SubQueue <= 0 {
		cp.SubQueue = 64
	}
	if cp.ReportWait <= 0 {
		cp.ReportWait = 2 * time.Second
	}
	if cp.Shards <= 0 {
		cp.Shards = 1
	}
	return cp
}

// stepReply is the engine's answer to a dispatched wireReq: the slot
// decision for its submission part (slot/base/assigned, with assigned
// aliasing the request's own assignedBuf), the absorption result of its
// report part (accepted, and repErr for a step whose submission went
// ahead), and err for terminal failures (shed, engine stopped, late pure
// report).
type stepReply struct {
	slot     int
	base     int
	assigned []int
	accepted int
	repErr   error
	err      error
}

var errStopped = errors.New("serve: engine stopped")

// Engine is the serving core: it walks the strict slot protocol (batch
// → Decide → reply → collect reports → Observe → maybe checkpoint), so
// the learner never sees concurrent calls.
//
// The protocol is an explicit state machine guarded by one mutex, and
// there is no engine goroutine: every request runs its own transitions
// on its caller's stack (dispatch), which feeds the request in and then
// lets advance drive decide/finish transitions until the machine parks. In
// lockstep, a step request that completes the open slot and closes the
// next batch therefore decides that batch before it returns, with no
// handoff or context switch. Two timers own the only transitions no
// request triggers: the report-wait deadline (a time.AfterFunc) and, when
// SlotEvery is set, the slot clock (a small ticker goroutine). Decide and
// Observe run strictly in slot order under mu, whichever stack runs them,
// which is why decisions are bit-identical to an offline sim.Run.
//
// The machine stays pipelined: while slot t sits open collecting outcome
// reports (and while its Observe runs with mu released), submissions for
// slot t+1 are admitted into the next batch, their decoding and staging
// done on their own stacks. Submissions the batch cannot take wait in a
// bounded FIFO backlog, re-admitted in arrival order.
type Engine struct {
	cfg Config
	// The learner plane: one partial learner per consistent-hash shard,
	// joined by the merger (shard.go). Shards ≤ 1 is a single shard.
	shards []*engineShard
	merger *core.Merger
	owner  []int
	// ckptGen is the checkpoint generation counter (under mu): shard
	// files are written under the next generation and committed by the
	// manifest rename, then the previous generation is deleted — a crash
	// at any point leaves one complete generation.
	ckptGen uint64
	part    *hypercube.Partition

	// done is closed once Stop or Abort has shut the machine down; the
	// slot clock goroutine exits on it and clockWG waits for that.
	done     chan struct{}
	stopOnce sync.Once
	clockWG  sync.WaitGroup

	// reqPool recycles wireReq objects across requests. A plain buffered
	// channel, not a sync.Pool: the GC never drains it, which is what
	// lets steady-state handling stay at 0 allocs/request. It is a cache,
	// not a bound: sized for a full backlog (SubQueue) plus reqPoolSlack
	// requests in the filling batch and in handlers; a request past that
	// is allocated fresh and left to the GC.
	reqPool chan *wireReq

	// pending counts tasks accepted into the queue but not yet decided —
	// the backpressure gauge the submit handler sheds against.
	pending atomic.Int64

	// Counters (atomics: handlers and status readers are concurrent).
	submittedTasks atomic.Uint64
	decidedTasks   atomic.Uint64
	assignedTasks  atomic.Uint64
	reportedTasks  atomic.Uint64
	slotsServed    atomic.Uint64
	shedRequests   atomic.Uint64
	shedTasks      atomic.Uint64
	lateSlots      atomic.Uint64
	lateReports    atomic.Uint64
	cumRewardBits  atomic.Uint64
	slotAtomic     atomic.Int64

	// Request-latency histograms (the obs log₂-bucket machinery). Each
	// endpoint histogram times every request it serves — accepted, shed,
	// and rejected alike; shedLat additionally isolates the 429 paths so
	// overload latency is visible on its own.
	submitLat obs.Histogram
	reportLat obs.Histogram
	stepLat   obs.Histogram
	shedLat   obs.Histogram

	rs *obs.RunStatus

	// mu guards all slot-machine state below. cond (on mu) signals the
	// machine's waits: Start for requests that arrived before it, the end
	// of a pipelined Observe for Stop and the slot clock, and Stop for
	// everyone.
	mu       sync.Mutex
	cond     *sync.Cond
	running  bool
	stopping bool

	// Slot-loop state (guarded by mu). backlog holds, in arrival order,
	// the submissions the accumulating batch could not take; advance
	// re-admits them from the head as soon as a batch can.
	batch   slotBatch
	backlog []*wireReq
	// Ingest staging (guarded by mu): each admitted submission is routed
	// into per-shard, per-SCN coverage rows at admission time, so closing
	// a slot publishes already-partitioned buffers instead of re-scanning
	// and copying the batch. Two arenas ping-pong: the slot being
	// decided/observed keeps aliasing one while the next slot's traffic
	// stages into the other.
	stages [2]ingestStage
	cur    int
	// view is the single policy-facing SlotView, repointed at the closing
	// arena each slot. One struct suffices: decideSlot(t+1) cannot run
	// before slot t's Observe completes (the observing gate), and Observe
	// is the last reader of slot t's view.
	view policy.SlotView
	// scnShard/scnLocal map each SCN to its owning learner shard and its
	// row within that shard's staging block. Immutable after NewEngine.
	scnShard []int
	scnLocal []int
	// observing marks the pipelined-close window: finishSlot is running
	// Observe for slot t with mu RELEASED, so handlers can decode,
	// validate, and stage slot t+1's traffic concurrently. Every
	// transition that could race the learner (decideSlot, advance's
	// decide/finish branches, shutdown's flush) gates on it; cond wakes
	// the waiters when the window closes.
	observing bool
	// scen is the per-slot scenario view scratch (guarded by mu; only
	// meaningful while deciding when cfg.Scenario != nil).
	scen   scenario.View
	fb     policy.Feedback
	repU   []float64
	repV   []float64
	repQ   []float64
	repGot []bool
	snap   obs.PolicySnapshot

	// Open-slot state (guarded by mu): set when decideSlot opens a slot
	// for outcome reports, consumed by finishSlot. openView and
	// openAssigned alias policy/scratch storage that stays stable until
	// the next Decide, which cannot happen before finishSlot.
	openActive    bool
	openSlot      int
	openN         int
	openView      *policy.SlotView
	openAssigned  []int
	openRemaining int
	openExpected  int
	openDeadline  time.Time
	openSpan      time.Time
	openTimedOut  bool
	// openCells aliases the open slot's arena cells (per-task hypercube
	// indices, computed by validateTasks on handler goroutines), consumed
	// by finishSlot's feedback build.
	openCells []int

	// Slot-trace scratch (guarded by mu; meaningful only when tracing —
	// cfg.SlotRing != nil): explicit per-slot stage timestamps feeding
	// the SlotSpan record. The probe's histograms aggregate; the ring
	// wants the individual slot, hence the separate clock reads.
	trStart     time.Time // decide entry (slot record's wall anchor)
	trViewNS    uint64
	trDecideNS  uint64
	trDecideEnd time.Time
	// lastMergeNS is the most recent Merger.Resolve duration (written in
	// decide under mu).
	lastMergeNS uint64
	// mergeLat is the merge-stage duration histogram (one Record per
	// slot), exported as lfsc_serve_merge_seconds.
	mergeLat obs.Histogram
	// Staged-ingest timing (traced engines only — cfg.SlotRing != nil,
	// see admit; guarded by mu): trStageNS accumulates staging time for
	// the slot being batched and is published as openStageNS at close;
	// trOverlapNS accumulates staging time landing inside the open slot's
	// observe window — the pipelined close's measured ingest overlap.
	trStageNS   uint64
	openStageNS uint64
	trOverlapNS uint64

	// Report-wait timer (guarded by mu), armed lazily: decideSlot arms it
	// only when it is idle, and a fire before the open slot's deadline
	// (it was armed for an earlier slot) re-arms it for that deadline, so
	// the steady fast-slot path never touches timer state.
	timer      *time.Timer
	timerArmed bool
}

// NewEngine builds the engine (learner, partition, queues) without
// starting it. Use Restore to load a checkpoint before Start.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Scenario != nil && cfg.Scenario.SCNs() != cfg.SCNs {
		return nil, fmt.Errorf("serve: scenario timeline covers %d SCNs, engine has %d",
			cfg.Scenario.SCNs(), cfg.SCNs)
	}
	part, err := hypercube.New(cfg.Dims, cfg.H)
	if err != nil {
		return nil, fmt.Errorf("serve: partition: %w", err)
	}
	coreCfg := core.Config{
		SCNs:     cfg.SCNs,
		Capacity: cfg.Capacity,
		Alpha:    cfg.Alpha,
		Beta:     cfg.Beta,
		Cells:    part.Cells(),
		KMax:     cfg.KMax,
		Horizon:  cfg.Horizon,
	}
	e := &Engine{
		cfg:     cfg,
		part:    part,
		done:    make(chan struct{}),
		reqPool: make(chan *wireReq, cfg.SubQueue+reqPoolSlack),
	}
	e.shards, e.merger, e.owner, err = buildShards(coreCfg, cfg.Seed, cfg.Shards)
	if err != nil {
		return nil, err
	}
	e.batch.init(cfg.SCNs)
	e.scnShard = make([]int, cfg.SCNs)
	e.scnLocal = make([]int, cfg.SCNs)
	rows := make([]int, cfg.Shards)
	for m, k := range e.owner {
		e.scnShard[m] = k
		e.scnLocal[m] = rows[k]
		rows[k]++
	}
	for i := range e.stages {
		e.stages[i].init(rows)
	}
	e.cond = sync.NewCond(&e.mu)
	if cfg.Metrics != nil {
		e.registerMetrics(cfg.Metrics)
	}
	return e, nil
}

// reqPoolSlack is the pooled-request headroom beyond the backlog.
const reqPoolSlack = 64

// getReq takes a wireReq from the pool (or allocates the pool's first
// few). The caller owns it until putReq.
func (e *Engine) getReq() *wireReq {
	select {
	case q := <-e.reqPool:
		return q
	default:
		return newWireReq()
	}
}

// putReq resets and recycles a wireReq. Only call once the engine can no
// longer reference it: after dispatch returned, or before it was called.
func (e *Engine) putReq(q *wireReq) {
	q.reset()
	select {
	case e.reqPool <- q:
	default:
	}
}

// Start opens the engine for requests (ones that arrived earlier have
// been waiting for it) and, with SlotEvery set, starts the slot clock.
// The engine serves until Stop or Abort.
func (e *Engine) Start() {
	if e.cfg.Registry != nil {
		e.rs = e.cfg.Registry.NewRun("lfscd", e.cfg.Horizon)
		// A restored engine re-registers with its history visible.
		if cum := e.CumReward(); cum != 0 {
			e.rs.RecordSlot(cum)
		}
	}
	e.mu.Lock()
	e.running = true
	e.slotAtomic.Store(int64(e.slotsSeen()))
	e.cond.Broadcast()
	e.mu.Unlock()
	if e.cfg.SlotEvery > 0 {
		e.clockWG.Add(1)
		go e.clock()
	}
}

// Stop closes the engine gracefully: it finishes the slot in flight
// (and decides a batch already bound to close) with whatever reports
// arrived, writes a final checkpoint (when configured), and fails every
// submission still waiting. Stop and Abort are idempotent between them.
func (e *Engine) Stop() { e.stop(false) }

// Abort is the unclean shutdown used by kill-and-resume tests: as Stop,
// but without the final checkpoint, as if the process had been killed.
// Only checkpoints already on disk survive.
func (e *Engine) Abort() { e.stop(true) }

func (e *Engine) stop(abort bool) {
	e.stopOnce.Do(func() {
		e.mu.Lock()
		e.shutdown(abort)
		e.mu.Unlock()
		close(e.done)
		e.clockWG.Wait()
	})
	e.rs.Finish()
}

// Slot returns the next slot index to be decided.
func (e *Engine) Slot() int { return int(e.slotAtomic.Load()) }

// CumReward returns the cumulative compound reward across all served
// slots, including history restored from a checkpoint.
func (e *Engine) CumReward() float64 {
	return math.Float64frombits(e.cumRewardBits.Load())
}

// Stats snapshots the serving counters (status pages and /v1/stats —
// the cold path; it may allocate).
func (e *Engine) Stats() Stats {
	st := Stats{
		Slot:           e.Slot(),
		CumReward:      e.CumReward(),
		SubmittedTasks: e.submittedTasks.Load(),
		DecidedTasks:   e.decidedTasks.Load(),
		AssignedTasks:  e.assignedTasks.Load(),
		ReportedTasks:  e.reportedTasks.Load(),
		SlotsServed:    e.slotsServed.Load(),
		ShedRequests:   e.shedRequests.Load(),
		ShedTasks:      e.shedTasks.Load(),
		LateSlots:      e.lateSlots.Load(),
		LateReports:    e.lateReports.Load(),
		SubmitLatency:  e.submitLat.Stat("submit"),
		ReportLatency:  e.reportLat.Stat("report"),
		StepLatency:    e.stepLat.Stat("step"),
		ShedLatency:    e.shedLat.Stat("shed"),
	}
	if e.cfg.SLO != nil {
		rep := e.cfg.SLO.Report()
		st.SLO = &rep
	}
	if tl := e.cfg.Scenario; tl != nil {
		slot := e.Slot()
		sleeps, fails, rejoins := tl.CumEventTotals(slot)
		st.Scenario = &ScenarioStat{
			Digest:  tl.Digest(),
			Slots:   tl.Slots(),
			UpSCNs:  tl.UpCount(slot),
			Sleeps:  sleeps,
			Fails:   fails,
			Rejoins: rejoins,
		}
	}
	for _, sh := range e.shards {
		st.Shards = append(st.Shards, ShardStat{
			Shard:         sh.id,
			SCNs:          len(sh.owned),
			RoutedSubs:    sh.routedSubs.Load(),
			RoutedTasks:   sh.routedTasks.Load(),
			ShedTasks:     sh.shedTasks.Load(),
			LastDecideNS:  sh.lastDecideNS.Load(),
			LastObserveNS: sh.lastObserveNS.Load(),
			LastStageNS:   sh.lastStageNS.Load(),
		})
	}
	return st
}

// errShed marks a shed submission (mapped to 429 by the HTTP layer).
type shedError struct{ reason string }

func (s *shedError) Error() string { return "serve: shed: " + s.reason }

// IsShed reports whether err is a load-shedding rejection.
func IsShed(err error) bool {
	_, ok := err.(*shedError)
	return ok
}

var (
	shedTaskQueue = &shedError{reason: "task queue full"}
	shedSubQueue  = &shedError{reason: "submission queue full"}
)

// errLateReport marks a report for a slot that is no longer open.
type lateReportError struct{ slot, open int }

func (l *lateReportError) Error() string {
	return fmt.Sprintf("serve: report for slot %d, but slot %d is open", l.slot, l.open)
}

// IsLateReport reports whether err is a closed-slot report rejection.
func IsLateReport(err error) bool {
	_, ok := err.(*lateReportError)
	return ok
}

// validateTasks checks a decoded submission against the learner's shape,
// using the request's own counts scratch (validation runs on handler
// goroutines, which must not touch engine-owned scratch).
func (e *Engine) validateTasks(q *wireReq) error {
	tasks := q.tasks
	if len(tasks) == 0 {
		return fmt.Errorf("serve: empty submission")
	}
	if cap(q.counts) < e.cfg.SCNs {
		q.counts = make([]int, e.cfg.SCNs)
	}
	counts := q.counts[:e.cfg.SCNs]
	for m := range counts {
		counts[m] = 0
	}
	q.cells = q.cells[:0]
	dims, scns, kMax := e.cfg.Dims, e.cfg.SCNs, e.cfg.KMax
	for i := range tasks {
		sp := &tasks[i]
		if len(sp.Ctx) != dims {
			return fmt.Errorf("serve: task %d: context has %d dims, want %d", i, len(sp.Ctx), dims)
		}
		if !task.Context(sp.Ctx).Valid() {
			return fmt.Errorf("serve: task %d: context outside [0,1]", i)
		}
		// Hypercube indexing rides with the request: computed here on the
		// handler goroutine, consumed verbatim by the slot close — the
		// engine never re-indexes a context. The partition is immutable, so
		// concurrent handlers share it freely.
		q.cells = append(q.cells, e.part.Index(task.Context(sp.Ctx)))
		if len(sp.SCNs) == 0 {
			return fmt.Errorf("serve: task %d: no visible SCNs", i)
		}
		// Duplicate SCNs within one task would double-count coverage; for
		// topologies up to 64 SCNs a bitmask catches them in the same pass
		// as the range/KMax checks.
		var seen uint64
		for _, m := range sp.SCNs {
			if m < 0 || m >= scns {
				return fmt.Errorf("serve: task %d: SCN %d out of range", i, m)
			}
			if scns <= 64 {
				bit := uint64(1) << uint(m)
				if seen&bit != 0 {
					return fmt.Errorf("serve: task %d lists SCN %d twice", i, m)
				}
				seen |= bit
			}
			counts[m]++
			if counts[m] > kMax {
				return fmt.Errorf("serve: submission exceeds KMax=%d for SCN %d", kMax, m)
			}
		}
		if scns > 64 {
			list := sp.SCNs
			for a := 0; a < len(list); a++ {
				for b := a + 1; b < len(list); b++ {
					if list[a] == list[b] {
						return fmt.Errorf("serve: task %d lists SCN %d twice", i, list[a])
					}
				}
			}
		}
	}
	return nil
}

// dispatch runs one validated request through the slot machine on the
// caller's stack: the pending-task gate, then under mu the backlog gate,
// ingest and advance — which in lockstep decides the next slot before
// the lock is released. A submission then waits for its reply, already
// buffered in lockstep, otherwise sent by whichever stack closes its
// slot (or fails it on Stop). Every submission that enters the machine
// is replied to exactly once, so q is the caller's again when dispatch
// returns. A pure report (no tasks) is answered directly.
//
// A shed submission still has its report part absorbed (rep.accepted),
// so backpressure on the next slot never starves the open slot's
// Observe. Requests that arrive before Start wait for it.
func (e *Engine) dispatch(q *wireReq) (stepReply, error) {
	n := int64(len(q.tasks))
	// Gate 1: the pending-task budget. Reserve optimistically so
	// concurrent submitters cannot stampede past the cap.
	overBudget := n > 0 && e.pending.Add(n) > int64(e.cfg.QueueCap)
	e.mu.Lock()
	for !e.running && !e.stopping {
		e.cond.Wait()
	}
	// Gate 2: the backlog depth. A submission the batch cannot take now
	// waits behind earlier ones, up to SubQueue of them.
	wait := n > 0 && (len(e.backlog) > 0 || e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) ||
		e.batch.wouldOverflow(q, e.cfg.KMax))
	var err error
	switch {
	case e.stopping:
		err = errStopped
	case overBudget:
		err = shedTaskQueue
	case wait && len(e.backlog) >= e.cfg.SubQueue:
		err = shedSubQueue
	}
	if err == errStopped {
		e.mu.Unlock()
		e.pending.Add(-n)
		return stepReply{}, err
	}
	if err != nil || n == 0 {
		// A pure report, or a shed submission: only the report part (if
		// any) enters the machine, and the answer is immediate.
		var rep stepReply
		if len(q.reports) > 0 {
			rep.accepted, rep.err = e.absorbPart(q)
			e.advance()
		}
		if err != nil {
			e.pending.Add(-n)
			e.shedRequests.Add(1)
			e.shedTasks.Add(uint64(n))
			e.accountShed(q)
			rep.err = err
		}
		e.mu.Unlock()
		return rep, rep.err
	}
	e.submittedTasks.Add(uint64(n))
	if len(q.reports) > 0 {
		q.repAccepted, q.repErr = e.absorbPart(q)
	}
	e.accountRouting(q)
	if wait {
		e.backlog = append(e.backlog, q)
	} else {
		e.admit(q)
	}
	e.advance()
	e.mu.Unlock()
	rep := <-q.resp
	return rep, rep.err
}

// absorbPart absorbs q's report part into the open slot, or rejects it
// as late when no slot is open. Call under mu.
func (e *Engine) absorbPart(q *wireReq) (int, error) {
	if !e.openActive {
		e.lateReports.Add(1)
		return 0, &lateReportError{slot: q.slot, open: int(e.slotAtomic.Load())}
	}
	acc, err := e.absorbReports(e.openSlot, e.openN, e.openAssigned, q.slot, q.reports)
	e.openRemaining -= acc
	return acc, err
}

// sloOutcome tags how a request ended for reqDone: validation and
// shutdown errors are latency samples but not SLO samples (the window
// tracks requests the engine actually accepted responsibility for).
type sloOutcome int8

const (
	sloSkip sloOutcome = iota
	sloOK
	sloShed
)

// reqDone closes a request's latency measurement with a single clock
// read feeding the per-endpoint histogram, the shed histogram for a shed
// request, and (for validated requests) the rolling SLO window —
// Histogram.Observe plus SLO.Record would read the clock twice per
// request, and on the target machines a clock read costs as much as the
// whole recording path.
func (e *Engine) reqDone(h *obs.Histogram, start time.Time, out sloOutcome) {
	now := time.Now()
	d := now.Sub(start)
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
	if out == sloShed {
		e.shedLat.Record(uint64(d))
	}
	if out != sloSkip {
		e.cfg.SLO.RecordAt(now.Unix(), uint64(d), out == sloShed)
	}
}

// Submit validates and enqueues a batch of task arrivals, blocking until
// the slot containing them is decided. Shed submissions return a
// *shedError immediately — the caller must retry later (429 semantics).
// This is the copying convenience API (tests, in-process callers); the
// HTTP handlers run the same dispatch on pooled requests directly.
func (e *Engine) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.submitLat, start, out) }()
	q := e.getReq()
	defer e.putReq(q)
	q.tasks = append(q.tasks[:0], req.Tasks...)
	q.close = req.Close
	if err := e.validateTasks(q); err != nil {
		return nil, err
	}
	rep, err := e.dispatch(q)
	if err != nil {
		if IsShed(err) {
			out = sloShed
		}
		return nil, err
	}
	out = sloOK
	return &SubmitResponse{Slot: rep.slot, Base: rep.base, Assigned: append([]int(nil), rep.assigned...)}, nil
}

// Report delivers realised outcomes for the open slot and returns once
// they are absorbed or rejected.
func (e *Engine) Report(req *ReportRequest) (*ReportResponse, error) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.reportLat, start, out) }()
	if len(req.Reports) == 0 {
		return nil, fmt.Errorf("serve: empty report")
	}
	q := e.getReq()
	defer e.putReq(q)
	q.slot = req.Slot
	q.reports = append(q.reports[:0], req.Reports...)
	rep, err := e.dispatch(q)
	if !errors.Is(err, errStopped) {
		out = sloOK
	}
	if err != nil {
		return nil, err
	}
	return &ReportResponse{Accepted: rep.accepted}, nil
}

// StepInto is the batched round-trip: deliver the previous slot's
// outcome reports and submit the next slot's tasks in one call, parsing
// the combined acknowledgement into resp (reusing resp.Assigned — the
// allocation-lean path for in-process lockstep loops). The report part
// is absorbed first (its rejection, if any, comes back in
// resp.ReportError — the submission proceeds regardless); on shed, the
// report part is still delivered so the open slot's Observe is never
// starved by backpressure on the next slot.
func (e *Engine) StepInto(req *StepRequest, resp *StepResponse) error {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.stepLat, start, out) }()
	resp.Accepted = 0
	resp.ReportError = ""
	resp.Slot, resp.Base = 0, 0
	resp.Assigned = resp.Assigned[:0]
	q := e.getReq()
	defer e.putReq(q)
	q.tasks = append(q.tasks[:0], req.Tasks...)
	q.close = req.Close
	q.slot = req.Slot
	q.reports = append(q.reports[:0], req.Reports...)
	if err := e.validateTasks(q); err != nil {
		return err
	}
	rep, err := e.dispatch(q)
	resp.Accepted = rep.accepted
	if err != nil {
		if IsShed(err) {
			out = sloShed
		}
		return err
	}
	out = sloOK
	if rep.repErr != nil {
		resp.ReportError = rep.repErr.Error()
	}
	resp.Slot = rep.slot
	resp.Base = rep.base
	resp.Assigned = append(resp.Assigned[:0], rep.assigned...)
	return nil
}

// clock is the slot clock (SlotEvery > 0): on each tick a non-empty
// batch closes (decideSlot is a no-op on an empty one — no arrivals, no
// slot). A tick that lands while a slot is open or observing waits for
// that window to end: deferred, never dropped.
func (e *Engine) clock() {
	defer e.clockWG.Done()
	t := time.NewTicker(e.cfg.SlotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-e.done:
			return
		}
		e.mu.Lock()
		for (e.openActive || e.observing) && !e.stopping {
			e.cond.Wait()
		}
		if !e.stopping {
			e.decideSlot()
			e.advance()
		}
		e.mu.Unlock()
	}
}

// reportDeadline runs when the report-wait timer fires. It times the
// open slot out once its deadline has passed — Observe then runs with
// whatever reports arrived — or re-arms for the deadline of the slot now
// open (the timer was armed for an earlier one).
func (e *Engine) reportDeadline() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.timerArmed = false
	if !e.openActive || e.stopping {
		return
	}
	if d := time.Until(e.openDeadline); d > 0 {
		e.timerArmed = true
		e.timer.Reset(d)
		return
	}
	e.lateSlots.Add(1)
	e.openTimedOut = true
	e.openRemaining = 0
	e.advance()
}

// advance drives the machine until it parks: re-admit the backlog in
// arrival order while the accumulating batch can take its head, finish
// the open slot once every expected report is in (or the engine is
// stopping), and decide a batch that is bound to close (explicit close,
// MaxBatch, KMax) or that the backlog head would overflow. Call under mu.
func (e *Engine) advance() {
	for {
		// Admission is safe even mid-Observe: it only touches the next
		// slot's staging arena.
		if len(e.backlog) > 0 && !e.stopping && !e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) &&
			!e.batch.wouldOverflow(e.backlog[0], e.cfg.KMax) {
			q := e.backlog[0]
			copy(e.backlog, e.backlog[1:])
			e.backlog[len(e.backlog)-1] = nil
			e.backlog = e.backlog[:len(e.backlog)-1]
			e.admit(q)
			continue
		}
		if e.observing {
			// Slot t's Observe is running with mu released on the finishing
			// stack; no transition may touch the learner until it lands.
			// That stack's own advance loop re-runs these conditions after
			// finishSlot returns, so nothing accumulated here is stranded.
			return
		}
		if e.openActive {
			if e.openRemaining > 0 && !e.stopping {
				return
			}
			e.finishSlot()
			continue
		}
		// The backlog head is still waiting here only if the batch is
		// non-empty and cannot take it: serve the batch first.
		if e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) || (len(e.backlog) > 0 && !e.stopping) {
			e.decideSlot()
			continue
		}
		return
	}
}

// admit adds a submission to the accumulating batch (the caller has
// checked it fits). Its tasks are staged into the current arena
// immediately — admission order is slot order — so the close has
// nothing left to partition. Call under mu.
func (e *Engine) admit(q *wireReq) {
	e.batch.add(q, e.stages[e.cur].n)
	// Stage timing runs on traced multi-shard engines only: it attributes
	// ingest cost across shards and sizes the pipelined-close overlap, and
	// its two clock reads per admission would eat most of the one-shard
	// obs budget (benchdiff pins the obs stack at ≤5% over the probe).
	// One-shard traced engines report stage_ns 0.
	if e.cfg.SlotRing == nil || len(e.shards) == 1 {
		e.stageSub(q)
		return
	}
	t0 := time.Now()
	e.stageSub(q)
	d := uint64(time.Since(t0))
	e.trStageNS += d
	if e.observing {
		e.trOverlapNS += d
	}
	e.shards[e.scnShard[q.tasks[0].SCNs[0]]].stageAccNS += d
}

// stageSub routes a submission's tasks into the current staging arena:
// contexts packed into the arena's backing buffer, hypercube cells
// copied from the request (validateTasks computed them on the handler
// goroutine), and each task's slot index appended to the coverage row of
// every visible SCN, grouped by owning shard. The rows come out exactly
// as the old close-time re-scan built them — admission order is
// preserved — so decisions are bit-identical. Call under mu.
func (e *Engine) stageSub(q *wireReq) {
	st := &e.stages[e.cur]
	base := st.n
	for i := range q.tasks {
		sp := &q.tasks[i]
		st.ctxBuf = append(st.ctxBuf, sp.Ctx...)
		st.cells = append(st.cells, q.cells[i])
		idx := base + i
		for _, m := range sp.SCNs {
			ss := &st.shards[e.scnShard[m]]
			ss.cov[e.scnLocal[m]] = append(ss.cov[e.scnLocal[m]], idx)
		}
	}
	st.n += len(q.tasks)
}

// shutdown finishes the engine: flush the slot in flight (and a batch
// already bound to close) with whatever reports arrived, write a final
// checkpoint (unless aborting), then fail every submission still
// waiting, so no caller blocks forever. Call under mu.
func (e *Engine) shutdown(abort bool) {
	e.stopping = true
	e.cond.Broadcast()
	// A pipelined Observe may be in flight on another stack with mu
	// released; wait for its window to close before flushing, so the
	// final advance sees a quiescent learner.
	for e.observing {
		e.cond.Wait()
	}
	e.advance()
	if !abort && e.cfg.CheckpointPath != "" {
		// Best effort — the periodic checkpoint remains if this fails.
		_ = e.checkpointNow()
	}
	for _, q := range append(e.batch.subs, e.backlog...) {
		e.pending.Add(-int64(len(q.tasks)))
		q.resp <- stepReply{err: errStopped}
	}
	e.batch.reset()
	e.backlog = nil
	// The failed submissions' tasks were already staged; drop them with
	// the batch so the arena cannot leak into a later slot.
	e.stages[e.cur].reset()
	if e.timer != nil {
		e.timer.Stop()
	}
}

// decideSlot closes the accumulated batch and opens the slot: publish
// the staged arena as the slot view, Decide, reply to submitters, then
// leave the slot open for outcome reports (openRemaining counts the
// assigned tasks still unreported; finishSlot runs once it reaches
// zero). Call under mu. Mirrors the phase structure of sim.Run so the
// probe's breakdown is comparable across offline and serving runs (the
// view phase now only publishes — the build work happened at ingest).
func (e *Engine) decideSlot() {
	if e.observing {
		// Slot t's Observe is still running with mu released; deciding
		// t+1 now would break the learner's slot protocol. The finishing
		// stack re-runs the close conditions once the window ends.
		return
	}
	b := &e.batch
	st := &e.stages[e.cur]
	n := st.n
	if n == 0 {
		return
	}
	// One clock read per phase boundary, shared between the probe and
	// the slot tracer — duplicate time.Now() calls were the dominant
	// cost of the fully-instrumented slot path (a clock read costs as
	// much as several histogram records on the target machines).
	probe := e.cfg.Probe
	traced := e.cfg.SlotRing != nil
	instr := probe != nil || traced
	slot := e.slotsSeen()
	var span time.Time
	if instr {
		span = time.Now()
	}
	if traced {
		e.trStart = span
	}
	// Scenario masking is daemon-side: clients submit their full spec and
	// the view builder empties down SCNs' coverage rows, exactly as the
	// offline simulator masks at its view boundary — which is what keeps
	// client, daemon, and sim.Run bit-identical under churn.
	var dyn *scenario.View
	if e.cfg.Scenario != nil {
		e.cfg.Scenario.ViewInto(slot, &e.scen)
		dyn = &e.scen
	}
	view := e.publishView(slot, st, dyn)
	if instr {
		span = probe.LapAt(obs.PhaseView, span, time.Now())
		if traced {
			e.trViewNS = uint64(span.Sub(e.trStart))
		}
	}
	trMid := span
	assigned := e.decide(view)
	if instr {
		span = probe.LapAt(obs.PhaseDecide, span, time.Now())
		if traced {
			e.trDecideEnd = span
			e.trDecideNS = uint64(span.Sub(trMid))
		}
	}

	// Reply to every submitter with its contiguous range of decisions,
	// copied into the request's own reusable buffer. After the reply the
	// engine never touches the request (or the batch specs aliasing its
	// decoded buffers) again, which is what lets the handler recycle it.
	for i, q := range b.subs {
		base := b.subBase[i]
		q.assignedBuf = append(q.assignedBuf[:0], assigned[base:base+len(q.tasks)]...)
		e.pending.Add(-int64(len(q.tasks)))
		q.resp <- stepReply{
			slot: slot, base: base, assigned: q.assignedBuf,
			accepted: q.repAccepted, repErr: q.repErr,
		}
	}
	e.decidedTasks.Add(uint64(n))
	expected := 0
	for _, m := range assigned {
		if m >= 0 {
			expected++
		}
	}
	e.assignedTasks.Add(uint64(expected))

	// Flip the staging arenas and reset the sequencer: the NEXT slot
	// stages into the other arena while this one (aliased by the live
	// view) collects reports and observes — the pipeline overlap.
	b.reset()
	e.cur ^= 1
	e.stages[e.cur].reset()
	if traced {
		e.openStageNS = e.trStageNS
		e.trStageNS = 0
		for _, sh := range e.shards {
			sh.lastStageNS.Store(sh.stageAccNS)
			sh.stageAccNS = 0
		}
	}

	// Reset the per-task report scratch and open the slot.
	if cap(e.repGot) < n {
		e.repGot = make([]bool, n)
		e.repU = make([]float64, n)
		e.repV = make([]float64, n)
		e.repQ = make([]float64, n)
	}
	e.repGot = e.repGot[:n]
	e.repU, e.repV, e.repQ = e.repU[:n], e.repV[:n], e.repQ[:n]
	for i := range e.repGot {
		e.repGot[i] = false
	}
	e.openActive = true
	e.openSlot = slot
	e.openN = n
	e.openView = view
	e.openCells = st.cells
	e.openAssigned = assigned
	e.openRemaining = expected
	e.openExpected = expected
	if instr {
		// span is the after-decide timestamp — the moment the wait
		// actually starts, and one fewer clock read than time.Now().
		e.openDeadline = span.Add(e.cfg.ReportWait)
	} else {
		e.openDeadline = time.Now().Add(e.cfg.ReportWait)
	}
	e.openSpan = span
	e.openTimedOut = false
	if !e.timerArmed {
		e.timerArmed = true
		if e.timer == nil {
			e.timer = time.AfterFunc(time.Until(e.openDeadline), e.reportDeadline)
		} else {
			e.timer.Reset(time.Until(e.openDeadline))
		}
	}
}

// finishSlot closes the open slot: build the feedback from whatever
// reports arrived, Observe, account, maybe checkpoint. Call under mu;
// the mutex is RELEASED for the Observe itself (the pipelined close) —
// handlers decode, validate, and stage the next slot's traffic on their
// own stacks while the learner updates, with the observing flag gating
// every transition that could touch the learner mid-flight.
func (e *Engine) finishSlot() {
	probe := e.cfg.Probe
	traced := e.cfg.SlotRing != nil
	instr := probe != nil || traced
	n, assigned := e.openN, e.openAssigned
	var span time.Time
	if instr {
		span = probe.LapAt(obs.PhaseRealize, e.openSpan, time.Now())
	}
	trObsStart := span
	var waitNS, observeNS, ckptNS uint64
	if traced {
		waitNS = uint64(trObsStart.Sub(e.trDecideEnd))
	}

	// Feedback and reward in ascending task order — the exact summation
	// order of the offline simulator, so cumulative rewards stay
	// bit-comparable.
	e.fb.Execs = e.fb.Execs[:0]
	slotReward := 0.0
	for idx := 0; idx < n; idx++ {
		if !e.repGot[idx] {
			continue
		}
		ex := policy.Exec{
			SCN: assigned[idx], Task: idx, Cell: e.openCells[idx],
			U: e.repU[idx], V: e.repV[idx], Q: e.repQ[idx],
		}
		e.fb.Execs = append(e.fb.Execs, ex)
		slotReward += ex.Compound()
	}
	// The pipelined window: everything Observe reads (view, assigned, fb,
	// the closed arena) is engine-owned and untouched by ingest; late
	// reports during the window see openActive == false, exactly as they
	// would after a non-pipelined close.
	view := e.openView
	e.openActive = false
	e.observing = true
	e.trOverlapNS = 0
	e.mu.Unlock()
	e.observe(view, assigned, &e.fb)
	var obsEnd time.Time
	if instr {
		obsEnd = time.Now()
	}
	e.mu.Lock()
	e.observing = false
	e.cond.Broadcast()
	if instr {
		span = probe.LapAt(obs.PhaseObserve, span, obsEnd)
		if traced {
			observeNS = uint64(span.Sub(trObsStart))
		}
	}
	probe.EndSlot()

	cum := e.CumReward() + slotReward
	e.cumRewardBits.Store(math.Float64bits(cum))
	e.slotAtomic.Store(int64(e.slotsSeen()))
	e.slotsServed.Add(1)
	e.rs.RecordSlot(slotReward)

	t := e.slotsSeen()
	if e.cfg.SnapshotEvery > 0 && e.cfg.SnapshotSink != nil && t%e.cfg.SnapshotEvery == 0 {
		e.snap.Slot = t - 1
		e.snap.CumReward = cum
		e.snapshotPolicy(&e.snap)
		e.cfg.SnapshotSink.OnSnapshot(&e.snap)
	}
	if e.cfg.CheckpointEvery > 0 && e.cfg.CheckpointPath != "" && t%e.cfg.CheckpointEvery == 0 {
		if instr {
			span = time.Now()
		}
		trCkpt := span
		_ = e.checkpointNow()
		if instr {
			span = probe.LapAt(obs.PhaseSnapshot, span, time.Now())
			if traced {
				ckptNS = uint64(span.Sub(trCkpt))
			}
		}
	}
	if traced {
		rec := e.cfg.SlotRing.Begin()
		rec.Slot = e.openSlot
		rec.StartUnixNS = e.trStart.UnixNano()
		rec.Tasks = n
		rec.Assigned = e.openExpected
		rec.Reported = len(e.fb.Execs)
		rec.TimedOut = e.openTimedOut
		rec.StageNS = e.openStageNS
		rec.ViewNS = e.trViewNS
		rec.DecideNS = e.trDecideNS
		rec.MergeNS = e.lastMergeNS
		rec.WaitNS = waitNS
		rec.ObserveNS = observeNS
		rec.ObserveOverlapNS = e.trOverlapNS
		rec.CheckpointNS = ckptNS
		// One shard's breakdown is the slot's own, so the ring keeps none.
		if len(e.shards) > 1 {
			for _, sh := range e.shards {
				rec.ShardDecideNS = append(rec.ShardDecideNS, sh.lastDecideNS.Load())
				rec.ShardObserveNS = append(rec.ShardObserveNS, sh.lastObserveNS.Load())
				rec.ShardStageNS = append(rec.ShardStageNS, sh.lastStageNS.Load())
			}
		}
		e.cfg.SlotRing.Publish()
	}
}

// absorbReports validates a whole report batch against the open slot and
// commits it atomically: any invalid entry rejects the batch with no
// partial state.
func (e *Engine) absorbReports(slot, n int, assigned []int, reqSlot int, reports []TaskReport) (int, error) {
	if reqSlot != slot {
		e.lateReports.Add(1)
		return 0, &lateReportError{slot: reqSlot, open: slot}
	}
	// Validation marks repGot as it goes — one pass catches both a task
	// already reported by an earlier request and a duplicate within this
	// one — and rolls the marks back on rejection so the batch stays
	// atomic.
	reject := func(i int, err error) (int, error) {
		for j := 0; j < i; j++ {
			e.repGot[reports[j].Task] = false
		}
		return 0, err
	}
	for i := range reports {
		r := &reports[i]
		switch {
		case r.Task < 0 || r.Task >= n:
			return reject(i, fmt.Errorf("serve: report %d: task %d out of range", i, r.Task))
		case assigned[r.Task] < 0:
			return reject(i, fmt.Errorf("serve: report %d: task %d was not assigned", i, r.Task))
		case e.repGot[r.Task]:
			return reject(i, fmt.Errorf("serve: report %d: task %d already reported", i, r.Task))
		case math.IsNaN(r.U) || r.U < 0 || r.U > 1:
			return reject(i, fmt.Errorf("serve: report %d: reward %v outside [0,1]", i, r.U))
		case r.V != 0 && r.V != 1:
			return reject(i, fmt.Errorf("serve: report %d: completion %v not in {0,1}", i, r.V))
		case math.IsNaN(r.Q) || math.IsInf(r.Q, 0) || r.Q <= 0:
			return reject(i, fmt.Errorf("serve: report %d: consumption %v not positive", i, r.Q))
		}
		e.repGot[r.Task] = true
	}
	for i := range reports {
		r := &reports[i]
		e.repU[r.Task], e.repV[r.Task], e.repQ[r.Task] = r.U, r.V, r.Q
	}
	e.reportedTasks.Add(uint64(len(reports)))
	return len(reports), nil
}

// slotBatch is the slot sequencer: it owns only the boundary decisions
// (explicit close, MaxBatch, per-SCN KMax) and the submitter reply
// bookkeeping. The tasks themselves live in the staging arenas — the
// sequencer never copies a spec.
type slotBatch struct {
	n        int
	subs     []*wireReq
	subBase  []int
	scnCount []int
	closeReq bool
}

func (b *slotBatch) init(scns int) {
	b.scnCount = make([]int, scns)
}

// wouldOverflow reports whether adding q would push any SCN's coverage
// past kMax — the "slot is full at KMax" close condition — using q's
// per-SCN counts from validateTasks. An empty batch never overflows (a
// lone oversized submission was already rejected by validation).
func (b *slotBatch) wouldOverflow(q *wireReq, kMax int) bool {
	if b.n == 0 {
		return false
	}
	for i := range q.tasks {
		for _, m := range q.tasks[i].SCNs {
			if b.scnCount[m]+q.counts[m] > kMax {
				return true
			}
		}
	}
	return false
}

// add sequences a submission: base is its first task's slot index (the
// staging arena's pre-admission fill).
func (b *slotBatch) add(q *wireReq, base int) {
	b.subs = append(b.subs, q)
	b.subBase = append(b.subBase, base)
	b.n += len(q.tasks)
	for i := range q.tasks {
		for _, m := range q.tasks[i].SCNs {
			b.scnCount[m]++
		}
	}
	if q.close {
		b.closeReq = true
	}
}

func (b *slotBatch) shouldClose(maxBatch, kMax int) bool {
	if b.n == 0 {
		return false
	}
	if b.closeReq || b.n >= maxBatch {
		return true
	}
	for _, c := range b.scnCount {
		if c >= kMax {
			return true
		}
	}
	return false
}

func (b *slotBatch) reset() {
	b.n = 0
	b.subs = b.subs[:0]
	b.subBase = b.subBase[:0]
	for m := range b.scnCount {
		b.scnCount[m] = 0
	}
	b.closeReq = false
}

// ingestStage is one of the engine's two ping-pong staging arenas: the
// packed context buffer, per-task hypercube cells, and the per-shard
// blocks of per-SCN coverage rows, all filled at admission time in
// arrival order. Publishing a slot is then just handing these buffers to
// the view — the same data the old close-time re-scan produced, built
// once instead of twice.
type ingestStage struct {
	ctxBuf []float64
	ctxs   []task.Context
	cells  []int
	n      int
	shards []shardStage
}

// shardStage is one learner shard's staged coverage block, indexed by
// the shard-local SCN row (Engine.scnLocal).
type shardStage struct {
	cov [][]int
}

func (s *ingestStage) init(rows []int) {
	s.shards = make([]shardStage, len(rows))
	for k := range s.shards {
		s.shards[k].cov = make([][]int, rows[k])
	}
}

func (s *ingestStage) reset() {
	s.ctxBuf = s.ctxBuf[:0]
	s.ctxs = s.ctxs[:0]
	s.cells = s.cells[:0]
	s.n = 0
	for k := range s.shards {
		cov := s.shards[k].cov
		for r := range cov {
			cov[r] = cov[r][:0]
		}
	}
}

// publishView turns the closed staging arena into the policy-facing
// SlotView: coverage rows are handed over by pointer (no re-scan, no
// copy), contexts materialise as subslices of the packed buffer, and
// scenario masking empties down SCNs' rows exactly as the offline
// simulator's view boundary does — which is what keeps client, daemon,
// and sim.Run bit-identical under churn. Call under mu; the view
// aliases the arena, which stays untouched until the slot's Observe
// completes (the other arena takes the ingest traffic meanwhile).
func (e *Engine) publishView(t int, st *ingestStage, dyn *scenario.View) *policy.SlotView {
	n := st.n
	dims := e.cfg.Dims
	st.ctxs = st.ctxs[:0]
	for i := 0; i < n; i++ {
		st.ctxs = append(st.ctxs, task.Context(st.ctxBuf[i*dims:(i+1)*dims:(i+1)*dims]))
	}
	v := &e.view
	scns := e.cfg.SCNs
	if cap(v.SCNs) < scns {
		v.SCNs = make([]policy.SCNView, scns)
	}
	v.SCNs = v.SCNs[:scns]
	for m := 0; m < scns; m++ {
		if dyn != nil && !dyn.Up[m] {
			v.SCNs[m].Cover = nil
			continue
		}
		v.SCNs[m].Cover = st.shards[e.scnShard[m]].cov[e.scnLocal[m]]
	}
	if dyn == nil {
		v.Caps, v.AlphaMul, v.BetaMul = nil, nil, nil
	} else {
		v.Caps, v.AlphaMul, v.BetaMul = dyn.Caps, dyn.AlphaMul, dyn.BetaMul
	}
	v.T = t
	v.NumTasks = n
	v.Cells = st.cells
	v.SetCtxs(st.ctxs)
	return v
}
