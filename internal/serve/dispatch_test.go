package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// hammerConfig is a deliberately cramped engine: a tiny KMax keeps the
// overflow backlog busy, a small task budget and backlog depth make both
// shed gates fire, and a fast slot clock plus a short report wait keep
// slots closing on ticks and on timeouts as well as on explicit closes.
func hammerConfig(shards int) Config {
	return Config{
		SCNs: 4, Capacity: 2, Alpha: 1, Beta: 5,
		H: 3, KMax: 3, Horizon: 1 << 30, Seed: 77,
		Shards:     shards,
		SlotEvery:  time.Millisecond,
		QueueCap:   12,
		SubQueue:   2,
		ReportWait: 2 * time.Millisecond,
	}
}

// hammerDecision is one task's slot decision as a client saw it.
type hammerDecision struct {
	slot, idx, scn int
	visible        []int
}

// hammerTally is what the clients saw, summed over all of them.
type hammerTally struct {
	mu                sync.Mutex
	decisions         []hammerDecision
	decided           uint64
	shedReqs          uint64
	shedTasks         uint64
	reported          uint64
	stopFailedTasks   uint64
	stopFailedReports uint64
	errs              []string
}

func (h *hammerTally) errorf(format string, args ...any) {
	h.mu.Lock()
	h.errs = append(h.errs, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func isStopErr(err error) bool {
	return errors.Is(err, errStopped) || (err != nil && strings.Contains(err.Error(), "engine stopped"))
}

// TestConservationHammer drives the engine with seeded random
// interleavings of submit, step and report calls from many clients, each
// call going over HTTP or in-process at random, with random explicit
// closes, and stops the engine mid-run. It then checks the slot
// machine's invariants against what the clients saw: every accepted task
// got exactly one (slot, index) decision and every slot's indices are
// dense; no slot assigns an SCN more than Capacity tasks or covers it
// with more than KMax; SubmittedTasks = DecidedTasks + the tasks failed
// by the stop; no pending task survives Stop; and the shed and reported
// counters equal what the clients were told.
func TestConservationHammer(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runConservationHammer(t, shards, uint64(shards)*1009)
		})
	}
}

func runConservationHammer(t *testing.T, shards int, seed uint64) {
	const clients = 8
	const runFor = 150 * time.Millisecond
	cfg := hammerConfig(shards)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := StartServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	eng.Start()

	// The halt gate: a client registers each call's tasks under gate
	// before issuing it, and issues nothing once halted. The stopper
	// halts, waits until every registered task has reached the engine
	// (accepted or shed), then stops — so Stop lands mid-run, with
	// batches accumulating and slots open, but no call races in after it.
	var gate sync.Mutex
	halted := false
	var issued uint64
	register := func(n int) bool {
		gate.Lock()
		defer gate.Unlock()
		if halted {
			return false
		}
		issued += uint64(n)
		return true
	}

	var tally hammerTally
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hammerClient(eng, NewClient(srv.Addr()), rand.New(rand.NewSource(int64(seed)+int64(c))), cfg, register, &tally)
		}(c)
	}

	time.Sleep(runFor)
	gate.Lock()
	halted = true
	target := issued
	gate.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for eng.submittedTasks.Load()+eng.shedTasks.Load() < target {
		if time.Now().After(deadline) {
			t.Fatalf("issued tasks never reached the engine: %d of %d",
				eng.submittedTasks.Load()+eng.shedTasks.Load(), target)
		}
		time.Sleep(50 * time.Microsecond)
	}
	eng.Stop()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still blocked 10s after Stop")
	}
	for _, msg := range tally.errs {
		t.Error(msg)
	}

	// Exactly-once and dense per-slot indices.
	type key struct{ slot, idx int }
	seen := make(map[key]bool, len(tally.decisions))
	perSlot := map[int]int{}
	maxIdx := map[int]int{}
	assignedTo := map[key]int{} // (slot, scn) → assigned tasks
	covers := map[key]int{}     // (slot, scn) → covering tasks
	for _, d := range tally.decisions {
		k := key{d.slot, d.idx}
		if seen[k] {
			t.Fatalf("slot %d index %d decided twice", d.slot, d.idx)
		}
		seen[k] = true
		perSlot[d.slot]++
		if d.idx > maxIdx[d.slot] {
			maxIdx[d.slot] = d.idx
		}
		if d.scn >= 0 {
			ok := false
			for _, m := range d.visible {
				ok = ok || m == d.scn
			}
			if !ok {
				t.Fatalf("slot %d index %d assigned to SCN %d outside its visible set %v", d.slot, d.idx, d.scn, d.visible)
			}
			assignedTo[key{d.slot, d.scn}]++
		}
		for _, m := range d.visible {
			covers[key{d.slot, m}]++
		}
	}
	for slot, n := range perSlot {
		if maxIdx[slot] != n-1 {
			t.Fatalf("slot %d: %d decided tasks but max index %d — a decision went missing", slot, n, maxIdx[slot])
		}
	}
	for k, n := range assignedTo {
		if n > cfg.Capacity {
			t.Fatalf("slot %d assigned %d tasks to SCN %d, capacity %d", k.slot, n, k.idx, cfg.Capacity)
		}
	}
	for k, n := range covers {
		if n > cfg.KMax {
			t.Fatalf("slot %d covers SCN %d with %d tasks, KMax %d", k.slot, k.idx, n, cfg.KMax)
		}
	}

	st := eng.Stats()
	if st.DecidedTasks != tally.decided {
		t.Fatalf("engine decided %d tasks, clients received %d decisions", st.DecidedTasks, tally.decided)
	}
	if st.SubmittedTasks != st.DecidedTasks+tally.stopFailedTasks {
		t.Fatalf("submitted %d != decided %d + failed by stop %d",
			st.SubmittedTasks, st.DecidedTasks, tally.stopFailedTasks)
	}
	if p := eng.pending.Load(); p != 0 {
		t.Fatalf("pending = %d after Stop", p)
	}
	if st.ShedRequests != tally.shedReqs || st.ShedTasks != tally.shedTasks {
		t.Fatalf("engine shed %d requests / %d tasks, clients saw %d / %d",
			st.ShedRequests, st.ShedTasks, tally.shedReqs, tally.shedTasks)
	}
	// A step failed by the stop may have had its report part absorbed
	// before its submission was failed; the error carries no count.
	if st.ReportedTasks < tally.reported || st.ReportedTasks > tally.reported+tally.stopFailedReports {
		t.Fatalf("engine absorbed %d reports, clients saw %d accepted (+ up to %d in stop-failed steps)",
			st.ReportedTasks, tally.reported, tally.stopFailedReports)
	}
	if st.SlotsServed == 0 || tally.decided == 0 {
		t.Fatalf("hammer served nothing: %+v", st)
	}
	t.Logf("slots %d decided %d shed %d/%d reported %d late slots %d late reports %d failed by stop %d",
		st.SlotsServed, st.DecidedTasks, st.ShedRequests, st.ShedTasks, st.ReportedTasks,
		st.LateSlots, st.LateReports, tally.stopFailedTasks)
}

// hammerClient issues random calls until halted. It remembers its last
// decision so it can report on it, through a step or a pure report.
func hammerClient(eng *Engine, client *Client, r *rand.Rand, cfg Config, register func(int) bool, tally *hammerTally) {
	var last struct {
		slot     int
		base     int
		assigned []int
	}
	haveLast := false
	randTasks := func() []TaskSpec {
		tasks := make([]TaskSpec, 1+r.Intn(3))
		for i := range tasks {
			a := r.Intn(cfg.SCNs)
			scns := []int{a}
			if r.Intn(2) == 0 {
				scns = append(scns, (a+1+r.Intn(cfg.SCNs-1))%cfg.SCNs)
			}
			tasks[i] = TaskSpec{Ctx: []float64{r.Float64(), r.Float64(), r.Float64()}, SCNs: scns}
		}
		return tasks
	}
	lastReports := func() []TaskReport {
		if !haveLast {
			return nil
		}
		var reps []TaskReport
		for i, m := range last.assigned {
			if m >= 0 && r.Intn(4) != 0 {
				reps = append(reps, TaskReport{Task: last.base + i, U: r.Float64(), V: float64(r.Intn(2)), Q: 0.5 + r.Float64()})
			}
		}
		haveLast = false // each decision is reported at most once
		return reps
	}
	record := func(slot, base int, assigned []int, tasks []TaskSpec) {
		tally.mu.Lock()
		for i, m := range assigned {
			tally.decisions = append(tally.decisions, hammerDecision{slot: slot, idx: base + i, scn: m, visible: tasks[i].SCNs})
		}
		tally.decided += uint64(len(tasks))
		tally.mu.Unlock()
		if len(assigned) != len(tasks) {
			tally.errorf("decision carries %d entries for %d tasks", len(assigned), len(tasks))
		}
		last.slot, last.base = slot, base
		last.assigned = append(last.assigned[:0], assigned...)
		haveLast = true
	}
	add := func(p *uint64, n int) {
		tally.mu.Lock()
		*p += uint64(n)
		tally.mu.Unlock()
	}
	// A shed client backs off briefly, as a 429 asks it to.
	shed := func(tasks int) {
		add(&tally.shedReqs, 1)
		add(&tally.shedTasks, tasks)
		time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
	}

	for {
		op := r.Intn(10)
		useHTTP := r.Intn(2) == 0
		switch {
		case op < 4: // submit
			tasks := randTasks()
			closeNow := r.Intn(10) < 3
			if !register(len(tasks)) {
				return
			}
			var slot, base int
			var assigned []int
			var err error
			if useHTTP {
				var resp *SubmitResponse
				if resp, err = client.Submit(&SubmitRequest{Tasks: tasks, Close: closeNow}); err == nil {
					slot, base, assigned = resp.Slot, resp.Base, resp.Assigned
				}
			} else {
				var resp *SubmitResponse
				if resp, err = eng.Submit(&SubmitRequest{Tasks: tasks, Close: closeNow}); err == nil {
					slot, base, assigned = resp.Slot, resp.Base, resp.Assigned
				}
			}
			var shedErr *ErrShed
			switch {
			case err == nil:
				record(slot, base, assigned, tasks)
			case IsShed(err) || errors.As(err, &shedErr):
				shed(len(tasks))
			case isStopErr(err):
				add(&tally.stopFailedTasks, len(tasks))
			default:
				tally.errorf("submit: %v", err)
			}
		case op < 7: // step
			tasks := randTasks()
			closeNow := r.Intn(10) < 3
			if !register(len(tasks)) {
				return
			}
			repSlot := last.slot
			reps := lastReports()
			var resp StepResponse
			var err error
			if useHTTP {
				err = client.StepInto(repSlot, reps, tasks, closeNow, &resp)
			} else {
				err = eng.StepInto(&StepRequest{Slot: repSlot, Reports: reps, Tasks: tasks, Close: closeNow}, &resp)
			}
			var shedErr *ErrShed
			switch {
			case err == nil:
				add(&tally.reported, resp.Accepted)
				record(resp.Slot, resp.Base, resp.Assigned, tasks)
			case errors.As(err, &shedErr):
				add(&tally.reported, shedErr.Accepted)
				shed(len(tasks))
			case IsShed(err):
				add(&tally.reported, resp.Accepted)
				shed(len(tasks))
			case isStopErr(err):
				add(&tally.stopFailedTasks, len(tasks))
				add(&tally.stopFailedReports, len(reps))
			default:
				tally.errorf("step: %v", err)
			}
		default: // pure report on the last decision
			repSlot := last.slot
			reps := lastReports()
			if len(reps) == 0 {
				continue
			}
			if !register(0) {
				return
			}
			var resp *ReportResponse
			var err error
			if useHTTP {
				resp, err = client.Report(&ReportRequest{Slot: repSlot, Reports: reps})
			} else {
				resp, err = eng.Report(&ReportRequest{Slot: repSlot, Reports: reps})
			}
			var late *ErrLate
			switch {
			case err == nil:
				add(&tally.reported, resp.Accepted)
			case IsLateReport(err) || errors.As(err, &late) || isStopErr(err):
			default:
				tally.errorf("report: %v", err)
			}
		}
	}
}

// TestBatchingSameOverHTTPAndInProcess pins arrival-order batching across
// transports. A opens slot 0 with Close; B closes the next batch while
// slot 0 still waits for reports; C arrives after B. C must not join B's
// already-closed batch: it waits for slot 2, whether the three calls go
// over HTTP or through Engine.Submit.
func TestBatchingSameOverHTTPAndInProcess(t *testing.T) {
	for _, mode := range []string{"http", "in-process"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{
				SCNs: 4, Capacity: 3, Alpha: 1, Beta: 5,
				H: 3, KMax: 5, Horizon: 1000, Seed: 5,
				ReportWait: 10 * time.Second,
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := StartServer("127.0.0.1:0", eng)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			eng.Start()
			defer eng.Stop()
			client := NewClient(srv.Addr())
			submit := func(req *SubmitRequest) (*SubmitResponse, error) {
				if mode == "http" {
					return client.Submit(req)
				}
				return eng.Submit(req)
			}
			report := func(slot, base int, assigned []int) {
				var reps []TaskReport
				for i, m := range assigned {
					if m >= 0 {
						reps = append(reps, TaskReport{Task: base + i, U: 0.5, V: 1, Q: 1})
					}
				}
				if len(reps) == 0 {
					return
				}
				req := &ReportRequest{Slot: slot, Reports: reps}
				var err error
				if mode == "http" {
					_, err = client.Report(req)
				} else {
					_, err = eng.Report(req)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			task := func(scn int) TaskSpec {
				return TaskSpec{Ctx: []float64{0.2, 0.4, 0.6}, SCNs: []int{scn}}
			}
			type result struct {
				resp *SubmitResponse
				err  error
			}
			async := func(req *SubmitRequest) chan result {
				ch := make(chan result, 1)
				go func() {
					resp, err := submit(req)
					ch <- result{resp, err}
				}()
				return ch
			}
			wait := func(ch chan result, who string) *SubmitResponse {
				select {
				case r := <-ch:
					if r.err != nil {
						t.Fatalf("%s: %v", who, r.err)
					}
					return r.resp
				case <-time.After(5 * time.Second):
					t.Fatalf("%s never decided", who)
				}
				return nil
			}
			waitFor := func(what string, cond func() bool) {
				deadline := time.Now().Add(5 * time.Second)
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}

			a, err := submit(&SubmitRequest{Tasks: []TaskSpec{task(0), task(0)}, Close: true})
			if err != nil {
				t.Fatal(err)
			}
			if a.Slot != 0 {
				t.Fatalf("A decided in slot %d, want 0", a.Slot)
			}
			open := false
			for _, m := range a.Assigned {
				open = open || m >= 0
			}
			if !open {
				t.Fatal("slot 0 assigned nothing, so it never waits for reports")
			}
			bCh := async(&SubmitRequest{Tasks: []TaskSpec{task(1)}, Close: true})
			waitFor("B to join the next batch", func() bool {
				eng.mu.Lock()
				defer eng.mu.Unlock()
				return eng.batch.n == 1
			})
			cCh := async(&SubmitRequest{Tasks: []TaskSpec{task(2)}, Close: true})
			waitFor("C to reach the engine", func() bool { return eng.submittedTasks.Load() == 4 })

			report(a.Slot, a.Base, a.Assigned)
			b := wait(bCh, "B")
			if b.Slot != 1 || b.Base != 0 {
				t.Fatalf("B decided as slot %d base %d, want slot 1 base 0", b.Slot, b.Base)
			}
			report(b.Slot, b.Base, b.Assigned)
			c := wait(cCh, "C")
			if c.Slot != 2 || c.Base != 0 {
				t.Fatalf("C decided as slot %d base %d, want slot 2 base 0 (it must not join B's closed batch)", c.Slot, c.Base)
			}
		})
	}
}

// TestRequestBeforeStartWaits pins the boot order lfscd relies on (the
// listener opens before Start): a submission that arrives before Start
// waits for it and is then decided, rather than failing.
func TestRequestBeforeStartWaits(t *testing.T) {
	eng := buildDaemon(t, testScenario(10, 3), nil)
	type result struct {
		resp *SubmitResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := eng.Submit(&SubmitRequest{Tasks: []TaskSpec{{Ctx: []float64{0.3, 0.3, 0.3}, SCNs: []int{0}}}, Close: true})
		done <- result{resp, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for eng.pending.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("submission never reached the engine")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case r := <-done:
		t.Fatalf("submission returned before Start: %+v, %v", r.resp, r.err)
	default:
	}
	eng.Start()
	defer eng.Stop()
	select {
	case r := <-done:
		if r.err != nil || r.resp.Slot != 0 || len(r.resp.Assigned) != 1 {
			t.Fatalf("submission after Start: %+v, %v", r.resp, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submission still waiting 5s after Start")
	}
}
