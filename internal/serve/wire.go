// Package serve turns the LFSC learner into an online decision service:
// the paper's MBS as a daemon. Clients submit task arrivals (context
// vector + visible SCNs) over HTTP; a slot-clocked batcher aggregates
// them into a slot (closing on a tick, at KMax, or on an explicit
// close), runs Decide on the arena runtime, returns per-task SCN
// assignments, and feeds completion reports back through Observe — the
// same strict Decide→Observe slot protocol the simulator follows, under
// live traffic with bounded queues and explicit load shedding.
//
// The wire format is JSON, but the hot endpoints (/v1/submit,
// /v1/report, and the batched /v1/step) never touch encoding/json:
// requests run through a hand-rolled single-pass decoder that parses the
// body in place into pooled, engine-owned buffers, and replies are built
// with append-based encoders into pooled scratch — steady-state request
// handling is allocation-free (pinned by TestServeWireZeroAlloc). The
// format is specified field-by-field in DESIGN.md §10.1.
//
// Lifecycle rides on internal/core checkpoints: the engine periodically
// writes an atomic checkpoint (write-temp-then-rename) carrying the slot
// counter, the cumulative reward, and the full learner state (weights,
// multipliers, per-SCN RNG streams), checkpoints again on graceful stop,
// and restores on boot — a killed-and-resumed daemon replays the rest of
// a trace bit-identically to one that never stopped (see serve tests).
package serve

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"unsafe"

	"lfsc/internal/obs"
)

// TaskSpec is one task arrival as the daemon sees it: the normalised
// context vector φ ∈ [0,1]^dims and the SCNs whose coverage area the
// originating device is in. The daemon never sees the raw payload,
// matching the paper's information model.
type TaskSpec struct {
	Ctx  []float64 `json:"ctx"`
	SCNs []int     `json:"scns"`
}

// SubmitRequest submits a batch of task arrivals. Close asks the batcher
// to close the slot as soon as these tasks are in it (lockstep replay
// submits one full slot per request with Close set); without it the slot
// closes on the next tick or when a coverage list reaches KMax.
type SubmitRequest struct {
	Tasks []TaskSpec `json:"tasks"`
	Close bool       `json:"close,omitempty"`
}

// SubmitResponse returns the decision for each submitted task, parallel
// to SubmitRequest.Tasks: the assigned SCN index, or -1 when the learner
// left the task unassigned. Base is the slot-global index of the first
// task (a submission's tasks are contiguous in the slot), which reports
// must use to address tasks.
type SubmitResponse struct {
	Slot     int   `json:"slot"`
	Base     int   `json:"base"`
	Assigned []int `json:"assigned"`
}

// TaskReport is the realised outcome of one executed task: the reward u,
// the completion indicator v ∈ {0,1}, and the resource consumption q —
// exactly the bandit feedback of the paper's model.
type TaskReport struct {
	Task int     `json:"task"` // slot-global index (SubmitResponse.Base + offset)
	U    float64 `json:"u"`
	V    float64 `json:"v"`
	Q    float64 `json:"q"`
}

// ReportRequest delivers outcomes for tasks assigned in the given slot.
// Only the currently open slot accepts reports; a request is absorbed
// atomically (all reports validated, then all committed) or rejected.
type ReportRequest struct {
	Slot    int          `json:"slot"`
	Reports []TaskReport `json:"reports"`
}

// ReportResponse acknowledges an absorbed report request.
type ReportResponse struct {
	Accepted int `json:"accepted"`
}

// StepRequest is the batched round-trip of the serving data plane: one
// request carries the realised outcomes of the previously decided slot
// AND the next slot's task arrivals, so a lockstep client pays one HTTP
// round-trip per slot instead of two. Reports (addressed by Slot) are
// absorbed first, then the tasks enter the batcher — exactly the order
// the two-request protocol produces, which is what keeps the batched
// path bit-identical to the unbatched one.
type StepRequest struct {
	Slot    int          `json:"slot,omitempty"`
	Reports []TaskReport `json:"reports,omitempty"`
	Tasks   []TaskSpec   `json:"tasks"`
	Close   bool         `json:"close,omitempty"`
}

// StepResponse is the combined acknowledgement: the report part's
// absorption count (and its rejection, if any, carried in ReportError —
// the submission part proceeds regardless), then the decision for the
// submitted tasks, exactly as SubmitResponse returns it.
type StepResponse struct {
	Accepted    int    `json:"accepted"`
	ReportError string `json:"report_error,omitempty"`
	Slot        int    `json:"slot"`
	Base        int    `json:"base"`
	Assigned    []int  `json:"assigned"`
}

// Stats is the daemon's live counter snapshot (GET /v1/stats, and the
// "lfsc_serve" expvar). Latency stats reuse the obs log₂-bucket
// histogram fidelity.
type Stats struct {
	// Slot is the next slot index to be decided (= completed slots,
	// including any carried in from a restored checkpoint).
	Slot int `json:"slot"`
	// CumReward is the cumulative compound reward over all served slots,
	// including checkpoint-restored history.
	CumReward float64 `json:"cum_reward"`

	SubmittedTasks uint64 `json:"submitted_tasks"`
	DecidedTasks   uint64 `json:"decided_tasks"`
	AssignedTasks  uint64 `json:"assigned_tasks"`
	ReportedTasks  uint64 `json:"reported_tasks"`
	SlotsServed    uint64 `json:"slots_served"`

	// ShedRequests / ShedTasks count submissions refused with 429 because
	// a bounded queue was full, and the tasks they carried.
	ShedRequests uint64 `json:"shed_requests"`
	ShedTasks    uint64 `json:"shed_tasks"`
	// LateSlots counts slots whose report wait timed out with outcomes
	// still missing; LateReports counts report requests that arrived
	// after their slot had already closed.
	LateSlots   uint64 `json:"late_slots"`
	LateReports uint64 `json:"late_reports"`

	SubmitLatency obs.PhaseStat `json:"submit_latency"`
	ReportLatency obs.PhaseStat `json:"report_latency"`
	StepLatency   obs.PhaseStat `json:"step_latency"`
	// ShedLatency times the requests that were refused with 429, so
	// overload latency is visible, not just overload counts.
	ShedLatency obs.PhaseStat `json:"shed_latency"`

	// SLO is the rolling-window latency/shed-rate summary (present only
	// when the engine was configured with an obs.SLO tracker).
	SLO *obs.SLOReport `json:"slo,omitempty"`
	// Shards is the per-shard breakdown of the learner plane: routing and
	// shed attribution by home shard, plus each shard's last-slot leg
	// durations of the two-phase barrier.
	Shards []ShardStat `json:"shards,omitempty"`
	// Scenario describes the active scenario timeline at the current
	// slot (present only when the engine was configured with one).
	Scenario *ScenarioStat `json:"scenario,omitempty"`
}

// ScenarioStat is the live view of an attached scenario timeline: its
// identity, the availability state at the next slot to be decided, and
// the cumulative event totals up to that slot. All values are pure
// lookups into the immutable timeline at the engine's atomic slot
// counter — no engine state is touched.
type ScenarioStat struct {
	// Digest identifies the timeline (config + shape + seed); Restore
	// refuses a checkpoint carrying a different digest.
	Digest string `json:"digest"`
	// Slots is the timeline period (slot indices wrap around it).
	Slots int `json:"slots"`
	// UpSCNs is the number of available SCNs at the current slot.
	UpSCNs int `json:"up_scns"`
	// Sleeps/Fails/Rejoins are cumulative event totals through the
	// current slot: scheduled sleep-window entries, churn/blockage
	// failures, and churn/blockage recoveries.
	Sleeps  uint64 `json:"sleeps"`
	Fails   uint64 `json:"fails"`
	Rejoins uint64 `json:"rejoins"`
}

// ShardStat is one learner shard's live counters.
type ShardStat struct {
	Shard int `json:"shard"`
	// SCNs is the number of SCNs the consistent-hash ring assigned here.
	SCNs        int    `json:"scns"`
	RoutedSubs  uint64 `json:"routed_subs"`
	RoutedTasks uint64 `json:"routed_tasks"`
	// ShedTasks counts tasks shed by the backpressure gates whose home
	// shard (first task's first SCN) was this one.
	ShedTasks uint64 `json:"shed_tasks"`
	// LastDecideNS / LastObserveNS are the durations of this shard's
	// legs of the most recent slot's parallel Decide and Observe stages.
	LastDecideNS  uint64 `json:"last_decide_ns"`
	LastObserveNS uint64 `json:"last_observe_ns"`
	// LastStageNS is the ingest-staging time attributed to this shard
	// (home-shard key) over the most recently closed slot's batch window.
	// Populated only when slot tracing (SlotRing) is on — staging is on
	// the ingest path, so the engine only pays for the clock reads when
	// someone asked for the trace.
	LastStageNS uint64 `json:"last_stage_ns"`
}

// errorBody is the JSON error envelope of non-2xx responses. Shed step
// requests additionally carry the report part's absorption count.
type errorBody struct {
	Error    string `json:"error"`
	Accepted int    `json:"accepted,omitempty"`
}

// ---------------------------------------------------------------------------
// Pooled request object
// ---------------------------------------------------------------------------

// maxWireBody bounds a request body; anything larger is rejected before
// it can balloon the pooled buffers.
const maxWireBody = 8 << 20

var errBodyTooLarge = errors.New("serve: request body exceeds 8 MiB")

// wireReq is one request travelling the zero-allocation data plane: the
// pooled body buffer, the decoded fields (task specs aliasing the packed
// ctx/scn arrays below — nothing per-task is allocated), the slot
// decision's reply channel, and the engine-filled reply storage. A
// wireReq has one owner at a time: the handler decodes and validates,
// the slot machine (on whichever stack closes the request's slot) reads
// tasks/reports and writes assignedBuf up to the moment it replies on
// resp, and the handler encodes the response and recycles the object. Recycling is safe immediately after the
// reply because the engine copies everything it needs (the view build
// packs contexts and coverage into engine-owned scratch) before
// replying.
type wireReq struct {
	// Decoded request.
	tasks    []TaskSpec
	close    bool
	slot     int
	hasSlot  bool
	reports  []TaskReport
	hasTasks bool
	hasReps  bool

	// Decode scratch: the body bytes and the packed per-task arrays the
	// TaskSpec slices alias ([ctxOff, ctxEnd, scnOff, scnEnd] per task).
	body   []byte
	ctxBuf []float64
	scnBuf []int
	offs   [][4]int32

	// Validation scratch: per-SCN coverage counts, filled on the handler
	// goroutine and read by the batcher's overflow check while queued.
	counts []int

	// cells holds each task's hypercube cell index, computed by
	// validateTasks on the handler goroutine — the indexing work the slot
	// close used to redo for the whole batch now rides in with the
	// request, already done by the time the engine stages the tasks.
	cells []int

	// The slot decision's reply. Capacity 1: in lockstep the request's
	// own stack decides its slot and replies before it waits.
	resp chan stepReply

	// Engine-filled reply storage: the submission's slice of the slot
	// assignment, copied here so the reply survives the engine's scratch
	// reuse.
	assignedBuf []int

	// Report-part result for step deliveries, filled when the engine
	// absorbs (or rejects) the reports; replied together with the
	// decision.
	repAccepted int
	repErr      error

	// Response encode scratch.
	out []byte
}

func newWireReq() *wireReq {
	return &wireReq{resp: make(chan stepReply, 1)}
}

// reset clears the decoded state while keeping every buffer's capacity,
// so a pooled wireReq decodes the next request allocation-free.
func (q *wireReq) reset() {
	q.tasks = q.tasks[:0]
	q.close = false
	q.slot = 0
	q.hasSlot = false
	q.reports = q.reports[:0]
	q.hasTasks = false
	q.hasReps = false
	q.body = q.body[:0]
	q.ctxBuf = q.ctxBuf[:0]
	q.scnBuf = q.scnBuf[:0]
	q.offs = q.offs[:0]
	q.cells = q.cells[:0]
	q.assignedBuf = q.assignedBuf[:0]
	q.repAccepted = 0
	q.repErr = nil
	q.out = q.out[:0]
}

// readBody slurps r into the pooled body buffer, growing it at most up
// to maxWireBody. Steady state (a client resubmitting similar-sized
// bodies) reads into existing capacity and allocates nothing.
func (q *wireReq) readBody(r io.Reader) error {
	q.body = q.body[:0]
	if cap(q.body) == 0 {
		q.body = make([]byte, 0, 4096)
	}
	for {
		if len(q.body) == cap(q.body) {
			if cap(q.body) >= maxWireBody {
				return errBodyTooLarge
			}
			q.body = append(q.body, 0)[:len(q.body)]
		}
		n, err := r.Read(q.body[len(q.body):cap(q.body)])
		q.body = q.body[:len(q.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("serve: read body: %w", err)
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming decoder
// ---------------------------------------------------------------------------

// bstr views b as a string without copying. The decoder uses it to feed
// byte spans of the (stable, caller-owned) body buffer to strconv; the
// string never escapes the parsing call, so the aliasing is safe.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// wireParser is a single-pass JSON parser over a request body. It
// understands exactly the structure the decision API needs — objects
// with known fields, arrays of numbers, arrays of flat objects, bools —
// and skips anything it does not recognise (unknown fields are the
// wire-format versioning rule; see DESIGN.md §10.1). It allocates
// nothing: numbers parse via strconv over in-place spans, and every
// container appends into the pooled wireReq buffers.
type wireParser struct {
	b []byte
	i int
}

var (
	errTruncated = errors.New("unexpected end of input")
	errSyntax    = errors.New("invalid JSON syntax")
	errTooDeep   = errors.New("value nested too deeply")
)

func (p *wireParser) fail(err error) error {
	return fmt.Errorf("serve: decode at offset %d: %w", p.i, err)
}

func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it.
func (p *wireParser) peek() (byte, error) {
	p.ws()
	if p.i >= len(p.b) {
		return 0, errTruncated
	}
	return p.b[p.i], nil
}

func (p *wireParser) expect(c byte) error {
	got, err := p.peek()
	if err != nil {
		return err
	}
	if got != c {
		return errSyntax
	}
	p.i++
	return nil
}

// lit consumes the literal s (already positioned at its first byte).
func (p *wireParser) lit(s string) error {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return errSyntax
	}
	p.i += len(s)
	return nil
}

// numberSpan scans a JSON number starting at the current position and
// returns its byte span.
func (p *wireParser) numberSpan() ([]byte, error) {
	start := p.i
	if p.i < len(p.b) && (p.b[p.i] == '-' || p.b[p.i] == '+') {
		p.i++
	}
	digits := false
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+' {
			if c >= '0' && c <= '9' {
				digits = true
			}
			p.i++
			continue
		}
		break
	}
	if !digits {
		return nil, errSyntax
	}
	return p.b[start:p.i], nil
}

func (p *wireParser) float() (float64, error) {
	if _, err := p.peek(); err != nil {
		return 0, err
	}
	span, err := p.numberSpan()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(bstr(span), 64)
	if err != nil {
		return 0, errSyntax
	}
	return v, nil
}

func (p *wireParser) int() (int, error) {
	if _, err := p.peek(); err != nil {
		return 0, err
	}
	span, err := p.numberSpan()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(bstr(span), 10, 64)
	if err != nil {
		return 0, errSyntax
	}
	return int(v), nil
}

func (p *wireParser) bool() (bool, error) {
	c, err := p.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 't':
		return true, p.lit("true")
	case 'f':
		return false, p.lit("false")
	}
	return false, errSyntax
}

// fieldName parses an object key. Keys containing escape sequences are
// consumed correctly but returned as empty (treated as unknown — the
// API's field names are plain ASCII, so an escaped spelling is simply
// skipped like any foreign field).
func (p *wireParser) fieldName() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	start := p.i
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			name := p.b[start:p.i]
			p.i++
			return name, nil
		case '\\':
			// Escaped key: finish the string, report it as unknown.
			p.i = start
			if err := p.skipString(); err != nil {
				return nil, err
			}
			return nil, nil
		default:
			p.i++
		}
	}
	return nil, errTruncated
}

// skipString consumes a string body (opening quote already consumed is
// NOT assumed: position is at the first content byte after start). It is
// called with p.i at the first byte after the opening quote.
func (p *wireParser) skipString() error {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			p.i++
			return nil
		case '\\':
			p.i += 2 // skip the escape introducer and its payload byte
		default:
			p.i++
		}
	}
	return errTruncated
}

// skipValue consumes any JSON value (for unknown fields), bounding the
// nesting depth so hostile input cannot exhaust the stack.
func (p *wireParser) skipValue(depth int) error {
	if depth > 32 {
		return errTooDeep
	}
	c, err := p.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		p.i++
		return p.skipString()
	case c == '{':
		p.i++
		for {
			c, err := p.peek()
			if err != nil {
				return err
			}
			if c == '}' {
				p.i++
				return nil
			}
			if err := p.expect('"'); err != nil {
				return err
			}
			if err := p.skipString(); err != nil {
				return err
			}
			if err := p.expect(':'); err != nil {
				return err
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			c, err = p.peek()
			if err != nil {
				return err
			}
			if c == ',' {
				p.i++
				continue
			}
			if c != '}' {
				return errSyntax
			}
		}
	case c == '[':
		p.i++
		for {
			c, err := p.peek()
			if err != nil {
				return err
			}
			if c == ']' {
				p.i++
				return nil
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			c, err = p.peek()
			if err != nil {
				return err
			}
			if c == ',' {
				p.i++
				continue
			}
			if c != ']' {
				return errSyntax
			}
		}
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	default:
		_, err := p.numberSpan()
		return err
	}
}

// array iterates a JSON array, calling elem for each element. A literal
// null is accepted as an empty array (matching encoding/json's nil-slice
// round trip).
func (p *wireParser) array(elem func() error) error {
	c, err := p.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return p.lit("null")
	}
	if err := p.expect('['); err != nil {
		return err
	}
	c, err = p.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		p.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		c, err := p.peek()
		if err != nil {
			return err
		}
		if c == ',' {
			p.i++
			continue
		}
		if c == ']' {
			p.i++
			return nil
		}
		return errSyntax
	}
}

// object iterates a JSON object, calling field(name) for each member;
// field must consume the value. A nil/empty name means "unknown" and the
// value has already been skipped by the caller contract below.
func (p *wireParser) object(field func(name []byte) error) error {
	if err := p.expect('{'); err != nil {
		return err
	}
	c, err := p.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		p.i++
		return nil
	}
	for {
		name, err := p.fieldName()
		if err != nil {
			return err
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		if err := field(name); err != nil {
			return err
		}
		c, err := p.peek()
		if err != nil {
			return err
		}
		if c == ',' {
			p.i++
			continue
		}
		if c == '}' {
			p.i++
			return nil
		}
		return errSyntax
	}
}

var (
	errDupField  = errors.New("duplicate field")
	errBadField  = errors.New("malformed field")
	errTrailing  = errors.New("trailing data after value")
	errNotObject = errors.New("request is not a JSON object")
)

// decode parses the pooled body into the request fields. It accepts the
// superset shape {slot, reports, tasks, close}; the per-endpoint
// handlers enforce which fields must (not) be present. Task contexts and
// coverage lists pack into ctxBuf/scnBuf; q.tasks is materialised after
// the parse so buffer growth cannot invalidate the aliases. On error the
// caller must reset the wireReq — the decoded state is undefined but
// never escapes the pooled object.
func (q *wireReq) decode() error {
	p := wireParser{b: q.body}
	if c, err := p.peek(); err != nil {
		return p.fail(err)
	} else if c != '{' {
		return p.fail(errNotObject)
	}
	err := p.object(func(name []byte) error {
		switch string(name) { // no alloc: compiler optimises []byte switch
		case "tasks":
			if q.hasTasks {
				return errDupField
			}
			q.hasTasks = true
			return q.parseTasks(&p)
		case "close":
			v, err := p.bool()
			if err != nil {
				return err
			}
			q.close = v
			return nil
		case "slot":
			if q.hasSlot {
				return errDupField
			}
			q.hasSlot = true
			v, err := p.int()
			if err != nil {
				return err
			}
			q.slot = v
			return nil
		case "reports":
			if q.hasReps {
				return errDupField
			}
			q.hasReps = true
			return q.parseReports(&p)
		default:
			return p.skipValue(0)
		}
	})
	if err != nil {
		if _, ok := err.(interface{ Unwrap() error }); ok {
			return err // already positioned by fail
		}
		return p.fail(err)
	}
	p.ws()
	if p.i != len(p.b) {
		return p.fail(errTrailing)
	}
	// Materialise the task specs over the (now final) packed arrays.
	q.tasks = q.tasks[:0]
	for _, o := range q.offs {
		q.tasks = append(q.tasks, TaskSpec{
			Ctx:  q.ctxBuf[o[0]:o[1]:o[1]],
			SCNs: q.scnBuf[o[2]:o[3]:o[3]],
		})
	}
	return nil
}

func (q *wireReq) parseTasks(p *wireParser) error {
	return p.array(func() error {
		var o [4]int32
		o[0] = int32(len(q.ctxBuf))
		o[2] = int32(len(q.scnBuf))
		seenCtx, seenSCNs := false, false
		err := p.object(func(name []byte) error {
			switch string(name) {
			case "ctx":
				if seenCtx {
					return errDupField
				}
				seenCtx = true
				return p.array(func() error {
					v, err := p.float()
					if err != nil {
						return err
					}
					q.ctxBuf = append(q.ctxBuf, v)
					return nil
				})
			case "scns":
				if seenSCNs {
					return errDupField
				}
				seenSCNs = true
				return p.array(func() error {
					v, err := p.int()
					if err != nil {
						return err
					}
					q.scnBuf = append(q.scnBuf, v)
					return nil
				})
			default:
				return p.skipValue(0)
			}
		})
		if err != nil {
			return err
		}
		o[1] = int32(len(q.ctxBuf))
		o[3] = int32(len(q.scnBuf))
		q.offs = append(q.offs, o)
		return nil
	})
}

func (q *wireReq) parseReports(p *wireParser) error {
	return p.array(func() error {
		var r TaskReport
		seen := [4]bool{}
		err := p.object(func(name []byte) error {
			var idx int
			switch string(name) {
			case "task":
				idx = 0
			case "u":
				idx = 1
			case "v":
				idx = 2
			case "q":
				idx = 3
			default:
				return p.skipValue(0)
			}
			if seen[idx] {
				return errDupField
			}
			seen[idx] = true
			if idx == 0 {
				v, err := p.int()
				if err != nil {
					return err
				}
				r.Task = v
				return nil
			}
			v, err := p.float()
			if err != nil {
				return err
			}
			switch idx {
			case 1:
				r.U = v
			case 2:
				r.V = v
			case 3:
				r.Q = v
			}
			return nil
		})
		if err != nil {
			return err
		}
		q.reports = append(q.reports, r)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Append-based encoders
// ---------------------------------------------------------------------------

func appendInt(b []byte, v int) []byte {
	return strconv.AppendInt(b, int64(v), 10)
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends s as a quoted JSON string, escaping quotes,
// backslashes, and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func appendIntArray(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, v)
	}
	return append(b, ']')
}

func appendTasks(b []byte, tasks []TaskSpec) []byte {
	b = append(b, `"tasks":[`...)
	for i := range tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ctx":[`...)
		for j, v := range tasks[i].Ctx {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, `],"scns":`...)
		b = appendIntArray(b, tasks[i].SCNs)
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendReports(b []byte, slot int, reports []TaskReport) []byte {
	b = append(b, `"slot":`...)
	b = appendInt(b, slot)
	b = append(b, `,"reports":[`...)
	for i := range reports {
		r := &reports[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"task":`...)
		b = appendInt(b, r.Task)
		b = append(b, `,"u":`...)
		b = appendFloat(b, r.U)
		b = append(b, `,"v":`...)
		b = appendFloat(b, r.V)
		b = append(b, `,"q":`...)
		b = appendFloat(b, r.Q)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendSubmitRequest encodes {"tasks":[...],"close":bool}.
func appendSubmitRequest(b []byte, tasks []TaskSpec, close bool) []byte {
	b = append(b, '{')
	b = appendTasks(b, tasks)
	if close {
		b = append(b, `,"close":true`...)
	}
	return append(b, '}')
}

// appendReportRequest encodes {"slot":N,"reports":[...]}.
func appendReportRequest(b []byte, slot int, reports []TaskReport) []byte {
	b = append(b, '{')
	b = appendReports(b, slot, reports)
	return append(b, '}')
}

// appendStepRequest encodes the batched step: the report part (omitted
// when empty) followed by the submit part.
func appendStepRequest(b []byte, slot int, reports []TaskReport, tasks []TaskSpec, close bool) []byte {
	b = append(b, '{')
	if len(reports) > 0 {
		b = appendReports(b, slot, reports)
		b = append(b, ',')
	}
	b = appendTasks(b, tasks)
	if close {
		b = append(b, `,"close":true`...)
	}
	return append(b, '}')
}

// appendSubmitResponse encodes {"slot":s,"base":b,"assigned":[...]}.
func appendSubmitResponse(b []byte, slot, base int, assigned []int) []byte {
	b = append(b, `{"slot":`...)
	b = appendInt(b, slot)
	b = append(b, `,"base":`...)
	b = appendInt(b, base)
	b = append(b, `,"assigned":`...)
	b = appendIntArray(b, assigned)
	return append(b, '}')
}

// appendReportResponse encodes {"accepted":n}.
func appendReportResponse(b []byte, accepted int) []byte {
	b = append(b, `{"accepted":`...)
	b = appendInt(b, accepted)
	return append(b, '}')
}

// appendStepResponse encodes the combined acknowledgement.
func appendStepResponse(b []byte, accepted int, repErr string, slot, base int, assigned []int) []byte {
	b = append(b, `{"accepted":`...)
	b = appendInt(b, accepted)
	if repErr != "" {
		b = append(b, `,"report_error":`...)
		b = appendJSONString(b, repErr)
	}
	b = append(b, `,"slot":`...)
	b = appendInt(b, slot)
	b = append(b, `,"base":`...)
	b = appendInt(b, base)
	b = append(b, `,"assigned":`...)
	b = appendIntArray(b, assigned)
	return append(b, '}')
}

// appendErrorBody encodes the error envelope; accepted > 0 (a shed step
// whose report part was still absorbed) rides along.
func appendErrorBody(b []byte, msg string, accepted int) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	if accepted > 0 {
		b = append(b, `,"accepted":`...)
		b = appendInt(b, accepted)
	}
	return append(b, '}')
}

// ---------------------------------------------------------------------------
// Client-side response parsers (same machinery, reusable targets)
// ---------------------------------------------------------------------------

// parseSubmitResponse decodes a SubmitResponse, reusing into.Assigned.
func parseSubmitResponse(b []byte, into *SubmitResponse) error {
	p := wireParser{b: b}
	into.Assigned = into.Assigned[:0]
	err := p.object(func(name []byte) error {
		switch string(name) {
		case "slot":
			v, err := p.int()
			into.Slot = v
			return err
		case "base":
			v, err := p.int()
			into.Base = v
			return err
		case "assigned":
			return p.array(func() error {
				v, err := p.int()
				if err != nil {
					return err
				}
				into.Assigned = append(into.Assigned, v)
				return nil
			})
		default:
			return p.skipValue(0)
		}
	})
	if err != nil {
		return p.fail(err)
	}
	return nil
}

// parseReportResponse decodes a ReportResponse.
func parseReportResponse(b []byte, into *ReportResponse) error {
	p := wireParser{b: b}
	err := p.object(func(name []byte) error {
		if string(name) == "accepted" {
			v, err := p.int()
			into.Accepted = v
			return err
		}
		return p.skipValue(0)
	})
	if err != nil {
		return p.fail(err)
	}
	return nil
}

// parseStepResponse decodes a StepResponse, reusing into.Assigned.
func parseStepResponse(b []byte, into *StepResponse) error {
	p := wireParser{b: b}
	into.Assigned = into.Assigned[:0]
	into.ReportError = ""
	err := p.object(func(name []byte) error {
		switch string(name) {
		case "accepted":
			v, err := p.int()
			into.Accepted = v
			return err
		case "report_error":
			s, err := p.string()
			into.ReportError = s
			return err
		case "slot":
			v, err := p.int()
			into.Slot = v
			return err
		case "base":
			v, err := p.int()
			into.Base = v
			return err
		case "assigned":
			return p.array(func() error {
				v, err := p.int()
				if err != nil {
					return err
				}
				into.Assigned = append(into.Assigned, v)
				return nil
			})
		default:
			return p.skipValue(0)
		}
	})
	if err != nil {
		return p.fail(err)
	}
	return nil
}

// parseErrorBody extracts the error envelope; returns ok=false when b is
// not the envelope shape.
func parseErrorBody(b []byte) (msg string, accepted int, ok bool) {
	p := wireParser{b: b}
	err := p.object(func(name []byte) error {
		switch string(name) {
		case "error":
			s, err := p.string()
			msg = s
			return err
		case "accepted":
			v, err := p.int()
			accepted = v
			return err
		default:
			return p.skipValue(0)
		}
	})
	return msg, accepted, err == nil && msg != ""
}

// string parses a JSON string value, allocating only for the returned
// value (used on cold paths: error envelopes, report_error).
func (p *wireParser) string() (string, error) {
	if err := p.expect('"'); err != nil {
		return "", err
	}
	start := p.i
	simple := true
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			s := string(p.b[start:p.i])
			p.i++
			if !simple {
				return unescapeJSON(s), nil
			}
			return s, nil
		case '\\':
			simple = false
			p.i += 2
		default:
			p.i++
		}
	}
	return "", errTruncated
}

// unescapeJSON handles the escapes our own encoder emits (\" \\ \u00XX);
// anything else passes through literally. Cold path only.
func unescapeJSON(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			out = append(out, s[i])
			continue
		}
		i++
		switch s[i] {
		case '"', '\\', '/':
			out = append(out, s[i])
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case 'r':
			out = append(out, '\r')
		case 'u':
			if i+4 < len(s) {
				if v, err := strconv.ParseUint(s[i+1:i+5], 16, 32); err == nil && v < 0x80 {
					out = append(out, byte(v))
					i += 4
					continue
				}
			}
			out = append(out, '\\', 'u')
		default:
			out = append(out, '\\', s[i])
		}
	}
	return string(out)
}
