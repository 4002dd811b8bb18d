package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lfsc/internal/serve"
)

// endToEnd and perLayer are the metric tables: name → unit. Every run
// reports every name of its table (BENCHMARK.json lists the same names;
// the tests check the two agree). A layer that does no work on a workload
// reports 0 for it.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"slots_per_s":     "1/s",
	"cpu_ms_per_slot": "ms",
	"step_p50_ms":     "ms",
	"peak_rss_mb":     "MB",
	"reward_per_slot": "reward/slot",
	"v1_per_slot":     "tasks/slot",
	"v2_per_slot":     "q/slot",
}

var perLayer = map[string]string{
	"trace.next_ms":             "ms",
	"core.decide_local_ms":      "ms",
	"core.resolve_ms":           "ms",
	"core.observe_ms":           "ms",
	"core.edges":                "count",
	"core.assigned_frac":        "ratio",
	"sim.self_ms":               "ms",
	"client.self_ms":            "ms",
	"serve.http_ms":             "ms",
	"serve.report_ms":           "ms",
	"serve.engine_ms":           "ms",
	"serve.engine_self_ms":      "ms",
	"serve.wire_transport_ms":   "ms",
	"serve.rtt_floor_ms":        "ms",
	"serve.req_kb":              "KB",
	"serve.resp_kb":             "KB",
	"serve.peer_wait_ms":        "ms",
	"serve.checkpoint_ms":       "ms",
	"runtime.alloc_kb_per_slot": "KB",
	"runtime.gc_per_1k_slots":   "count",
	"serve.shed":                "count",
	"serve.late_slots":          "count",
	"serve.late_reports":        "count",
	"reconcile.residual_frac":   "ratio",
	"tracing.overhead_frac":     "ratio",
}

// units is the union of both tables.
var units = func() map[string]string {
	u := map[string]string{}
	for n, v := range endToEnd {
		u[n] = v
	}
	for n, v := range perLayer {
		u[n] = v
	}
	return u
}()

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of xs (which it sorts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the exact q-quantile of the samples (sorted in place)
// by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// reportEndToEnd records every end-to-end metric: the median set-up time,
// the median slot rate and CPU per slot over the windows, the median step
// latency from exact per-request samples (never histogram buckets), the
// peak RSS and the quality figures. The tail percentiles are printed with
// the sample count but not recorded: on the 2-CPU box the benchmark was
// sized on, their run-to-run spread over ten 30-second runs (interquartile
// range up to 45% of the median for p95 and 35% for p99 on serve-fanin)
// exceeded the largest regression bound a metric may have, so a gate on
// them would reject changes for host noise.
func reportEndToEnd(r *result, setups []float64, wins []window, steps []float64, what string, q quality) {
	rate, cpuMS := windowMedians(wins)
	rates := make([]float64, 0, len(wins))
	for _, w := range wins {
		rates = append(rates, w.rate())
	}
	r.note("windows: %d, slots/s p10 %.1f p50 %.1f p90 %.1f", len(wins),
		quantile(rates, 0.1), quantile(rates, 0.5), quantile(rates, 0.9))
	r.set("setup_s", median(setups))
	r.set("slots_per_s", rate)
	r.set("cpu_ms_per_slot", cpuMS)
	sort.Float64s(steps)
	r.note("%s: %d samples, p95 %.4f ms, p99 %.4f ms, p99.9 %.4f ms (tails not gated)",
		what, len(steps), quantile(steps, 0.95), quantile(steps, 0.99), quantile(steps, 0.999))
	r.set("step_p50_ms", quantile(steps, 0.50))
	r.set("peak_rss_mb", peakRSSMB())
	n := float64(q.slots)
	if n == 0 {
		n = 1
	}
	r.set("reward_per_slot", q.reward/n)
	r.set("v1_per_slot", q.v1/n)
	r.set("v2_per_slot", q.v2/n)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM (peak resident set) of this process in MB; it
// falls back to getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window is one measured stretch of a run: slots decided, wall time and
// CPU time. Runs report the median over their windows, which keeps one
// preempted stretch from moving the figure.
type window struct {
	slots int
	wall  time.Duration
	cpu   time.Duration
}

func (w window) rate() float64       { return float64(w.slots) / w.wall.Seconds() }
func (w window) cpuPerSlot() float64 { return ms(w.cpu) / float64(w.slots) }

// windowMedians returns the median slot rate and the median CPU ms per slot
// over the windows.
func windowMedians(ws []window) (rate, cpuMS float64) {
	rates := make([]float64, 0, len(ws))
	cpus := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.slots == 0 || w.wall <= 0 {
			continue
		}
		rates = append(rates, w.rate())
		cpus = append(cpus, w.cpuPerSlot())
	}
	return median(rates), median(cpus)
}

// memDelta measures runtime allocation and GC counts over a region.
type memDelta struct {
	alloc uint64
	gcs   uint32
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// perSlot returns allocated KB per slot and GCs per 1000 slots since d.
func (d memDelta) perSlot(slots int) (allocKB, gcPer1k float64) {
	now := readMem()
	if slots <= 0 {
		return 0, 0
	}
	return float64(now.alloc-d.alloc) / 1024 / float64(slots),
		float64(now.gcs-d.gcs) * 1000 / float64(slots)
}

// quality accumulates the paper's per-slot figures: compound reward, QoS
// shortfall V1 = Σ_m (α − completed_m)^+ and resource excess
// V2 = Σ_m (q_m − β)^+.
type quality struct {
	slots          int
	reward, v1, v2 float64
}

func (q *quality) add(slots int, reward, v1, v2 float64) {
	q.slots += slots
	q.reward += reward
	q.v1 += v1
	q.v2 += v2
}

func (q *quality) merge(o quality) {
	q.slots += o.slots
	q.reward += o.reward
	q.v1 += o.v1
	q.v2 += o.v2
}

// slotViolations returns V1 and V2 for one slot from per-SCN completed and
// consumed totals.
func slotViolations(completed, consumed []float64, alpha, beta float64) (v1, v2 float64) {
	for m := range completed {
		if d := alpha - completed[m]; d > 0 {
			v1 += d
		}
		if d := consumed[m] - beta; d > 0 {
			v2 += d
		}
	}
	return v1, v2
}

// namedMS is one layer's self time, ms per slot.
type namedMS struct {
	name string
	ms   float64
}

// layerSet is the traced run's per-layer figures. Layers that do no work
// on a workload stay 0.
type layerSet struct {
	trace, decideLocal, resolve, observe, edges, assignedFrac, simSelf float64
	clientSelf, http, reportMS, engine, engineSelf, wire, rttFloor     float64
	reqKB, respKB, peerWait, checkpoint                                float64
	allocKB, gcPer1k                                                   float64
	shed, lateSlots, lateReports                                       float64

	// untracedMS is the untraced slot time (ms per slot) the layer
	// self-times must add up to; the two rates give the tracing overhead.
	untracedMS, untracedRate, tracedRate float64
	selfTimes                            []namedMS
}

func (l *layerSet) setCore(cs coreSpans) {
	n := float64(cs.slots)
	if n == 0 {
		return
	}
	l.decideLocal = ms(cs.decideLocal) / n
	l.resolve = ms(cs.resolve) / n
	l.observe = ms(cs.observe) / n
	l.edges = float64(cs.edges) / n
	if cs.edges > 0 {
		l.assignedFrac = float64(cs.assigned) / float64(cs.edges)
	}
}

// report prints the reconciliation and records every per-layer metric.
func (l *layerSet) report(r *result, workload string) {
	sum := 0.0
	for _, s := range l.selfTimes {
		sum += s.ms
		r.note("layer %-22s %9.4f ms/slot", s.name, s.ms)
	}
	residual := (l.untracedMS - sum) / l.untracedMS
	overhead := 1 - l.tracedRate/l.untracedRate
	r.note("reconcile %s: layer self-times sum %.4f ms/slot vs untraced %.4f ms/slot: residual %.2f%%, tracing overhead %.2f%%",
		workload, sum, l.untracedMS, 100*residual, 100*overhead)
	for name, v := range map[string]float64{
		"trace.next_ms":             l.trace,
		"core.decide_local_ms":      l.decideLocal,
		"core.resolve_ms":           l.resolve,
		"core.observe_ms":           l.observe,
		"core.edges":                l.edges,
		"core.assigned_frac":        l.assignedFrac,
		"sim.self_ms":               l.simSelf,
		"client.self_ms":            l.clientSelf,
		"serve.http_ms":             l.http,
		"serve.report_ms":           l.reportMS,
		"serve.engine_ms":           l.engine,
		"serve.engine_self_ms":      l.engineSelf,
		"serve.wire_transport_ms":   l.wire,
		"serve.rtt_floor_ms":        l.rttFloor,
		"serve.req_kb":              l.reqKB,
		"serve.resp_kb":             l.respKB,
		"serve.peer_wait_ms":        l.peerWait,
		"serve.checkpoint_ms":       l.checkpoint,
		"runtime.alloc_kb_per_slot": l.allocKB,
		"runtime.gc_per_1k_slots":   l.gcPer1k,
		"serve.shed":                l.shed,
		"serve.late_slots":          l.lateSlots,
		"serve.late_reports":        l.lateReports,
		"reconcile.residual_frac":   residual,
		"tracing.overhead_frac":     overhead,
	} {
		r.set(name, v)
	}
}

// errInvariant marks a violated correctness invariant, as opposed to a
// failed request.
var errInvariant = errors.New("invariant violated")

// countFailures adds a session's requests and failures to the result. A
// failure is a 429 shed, a 410 late report or a slot closed by the report
// timeout (all three from the daemon's counters), or a request that failed
// otherwise (transport error, other non-2xx status), which ends the
// session. Any failure fails the run.
func countFailures(r *result, requests int64, st serve.Stats, err error) {
	r.Attempted += requests
	counted := int64(st.ShedRequests + st.LateSlots + st.LateReports)
	r.Failed += counted
	var shed *serve.ErrShed
	var gone *serve.ErrLate
	if err != nil && !errors.Is(err, errInvariant) && !errors.As(err, &shed) && !errors.As(err, &gone) {
		r.Failed++
		counted++
	}
	if counted > 0 {
		r.gate("no failed requests", fmt.Errorf("shed %d, late slots %d, late reports %d, other %v",
			st.ShedRequests, st.LateSlots, st.LateReports, err))
	}
}

// addStats sums the daemons' shed and late counters into the layer set.
func (l *layerSet) addStats(sts ...serve.Stats) {
	for _, st := range sts {
		l.shed += float64(st.ShedRequests)
		l.lateSlots += float64(st.LateSlots)
		l.lateReports += float64(st.LateReports)
	}
}
