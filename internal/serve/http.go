package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"lfsc/internal/obs"
)

// Server is the daemon's HTTP front: the decision API plus the standard
// observability surface.
//
//	POST /v1/submit   submit task arrivals, blocks for the slot decision
//	POST /v1/report   deliver realised outcomes for the open slot
//	POST /v1/step     batched: previous slot's reports + next slot's tasks
//	GET  /v1/stats    serving counters as JSON
//	GET  /metrics     Prometheus text exposition (when Config.Metrics set)
//	GET  /lfsc/slots  slot-lifecycle trace ring as JSON (when Config.SlotRing set)
//	GET  /lfsc/status plain-text status (serving counters + phase table)
//	GET  /debug/vars  expvar (process defaults + "lfsc_serve")
//	     /debug/pprof the standard pprof handlers
//
// The three POST endpoints are the zero-allocation data plane: bodies
// decode in place into pooled request objects and replies encode into
// pooled scratch (see wire.go); steady-state handling allocates nothing.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// HTTP server timeouts, fixed rather than flags. Reading a request —
// header and body — is bounded, so a slow or stalled client cannot pin a
// handler goroutine and its pooled request, and idle keep-alive
// connections are reaped. There is deliberately no write timeout: a
// submit or step blocks until its slot is decided.
const (
	serverReadTimeout = 30 * time.Second
	serverIdleTimeout = 2 * time.Minute
)

// serverReadHeaderTimeout bounds reading a request header. A variable
// only so tests can shorten it.
var serverReadHeaderTimeout = 5 * time.Second

// serveExpvar mirrors the obs expvar pattern: Publish is forever, so the
// "lfsc_serve" var registers once and re-points at the latest engine.
var serveExpvar struct {
	once sync.Once
	mu   sync.Mutex
	eng  *Engine
}

// StartServer binds addr (e.g. ":9090" or "127.0.0.1:0" for tests) and
// serves the engine's API. Close the returned server when done; stopping
// the engine and closing the server are independent.
func StartServer(addr string, eng *Engine) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	serveExpvar.mu.Lock()
	serveExpvar.eng = eng
	serveExpvar.mu.Unlock()
	serveExpvar.once.Do(func() {
		expvar.Publish("lfsc_serve", expvar.Func(func() any {
			serveExpvar.mu.Lock()
			e := serveExpvar.eng
			serveExpvar.mu.Unlock()
			if e == nil {
				return nil
			}
			return e.Stats()
		}))
	})

	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", eng.handleSubmit)
	mux.HandleFunc("/v1/report", eng.handleReport)
	mux.HandleFunc("/v1/step", eng.handleStep)
	mux.HandleFunc("/v1/stats", eng.handleStats)
	if eng.cfg.Metrics != nil {
		mux.Handle("/metrics", eng.cfg.Metrics.Handler())
	}
	if eng.cfg.SlotRing != nil {
		mux.HandleFunc("/lfsc/slots", eng.handleSlots)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/lfsc/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		eng.writeStatus(w, time.Since(start))
	})

	s := &Server{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: serverReadHeaderTimeout,
		ReadTimeout:       serverReadTimeout,
		IdleTimeout:       serverIdleTimeout,
	}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the HTTP server down (the engine keeps running).
func (s *Server) Close() error { return s.srv.Close() }

// ctJSON is the shared Content-Type value the hot handlers install by
// direct map assignment — http.Header.Set allocates a fresh []string per
// call, which would break the 0 allocs/request pin.
var ctJSON = []string{"application/json"}

func setJSONHeader(w http.ResponseWriter) {
	h := w.Header()
	if len(h["Content-Type"]) == 0 {
		h["Content-Type"] = ctJSON
	}
}

// writeBody sends the encoded response in q.out and recycles q.
func (e *Engine) writeBody(w http.ResponseWriter, q *wireReq, status int) {
	setJSONHeader(w)
	w.WriteHeader(status)
	w.Write(q.out) //nolint:errcheck // client gone is fine
	e.putReq(q)
}

// writeErrReq encodes the error envelope into q's scratch (q is owned by
// the handler again) and recycles it.
func (e *Engine) writeErrReq(w http.ResponseWriter, q *wireReq, status int, msg string, accepted int) {
	q.out = appendErrorBody(q.out[:0], msg, accepted)
	e.writeBody(w, q, status)
}

// writeErrAlloc is the cold-path error writer for requests refused
// before a pooled request was taken.
func writeErrAlloc(w http.ResponseWriter, status int, msg string) {
	setJSONHeader(w)
	w.WriteHeader(status)
	w.Write(appendErrorBody(nil, msg, 0)) //nolint:errcheck
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.submitLat, start, out) }()
	if r.Method != http.MethodPost {
		writeErrAlloc(w, http.StatusMethodNotAllowed, "serve: POST only")
		return
	}
	q := e.getReq()
	if err := q.readBody(r.Body); err != nil {
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if err := q.decode(); err != nil {
		msg := "serve: decode: " + err.Error()
		q.reset()
		e.writeErrReq(w, q, http.StatusBadRequest, msg, 0)
		return
	}
	if err := e.validateTasks(q); err != nil {
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
		return
	}
	rep, err := e.dispatch(q)
	switch {
	case err == nil:
		out = sloOK
		q.out = appendSubmitResponse(q.out[:0], rep.slot, rep.base, rep.assigned)
		e.writeBody(w, q, http.StatusOK)
	case IsShed(err):
		out = sloShed
		e.writeErrReq(w, q, http.StatusTooManyRequests, err.Error(), 0)
	default:
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
	}
}

func (e *Engine) handleReport(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.reportLat, start, out) }()
	if r.Method != http.MethodPost {
		writeErrAlloc(w, http.StatusMethodNotAllowed, "serve: POST only")
		return
	}
	q := e.getReq()
	if err := q.readBody(r.Body); err != nil {
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if err := q.decode(); err != nil {
		msg := "serve: decode: " + err.Error()
		q.reset()
		e.writeErrReq(w, q, http.StatusBadRequest, msg, 0)
		return
	}
	if len(q.reports) == 0 {
		e.writeErrReq(w, q, http.StatusBadRequest, "serve: empty report", 0)
		return
	}
	// dispatch treats any request with tasks as a submission, and these
	// tasks were never validated.
	if len(q.tasks) > 0 {
		e.writeErrReq(w, q, http.StatusBadRequest, "serve: report carries tasks", 0)
		return
	}
	rep, err := e.dispatch(q)
	switch {
	case err == nil:
		out = sloOK
		q.out = appendReportResponse(q.out[:0], rep.accepted)
		e.writeBody(w, q, http.StatusOK)
	case IsLateReport(err):
		out = sloOK
		e.writeErrReq(w, q, http.StatusGone, err.Error(), 0)
	default:
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
	}
}

// handleStep serves the batched round trip: absorb the previous slot's
// reports, enter the new tasks into the batcher, reply with the next
// decision. A shed step still delivers its report part (the open slot's
// Observe must not starve behind backpressure on the next slot) and
// reports the absorption count in the 429 envelope.
func (e *Engine) handleStep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.stepLat, start, out) }()
	if r.Method != http.MethodPost {
		writeErrAlloc(w, http.StatusMethodNotAllowed, "serve: POST only")
		return
	}
	q := e.getReq()
	if err := q.readBody(r.Body); err != nil {
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if err := q.decode(); err != nil {
		msg := "serve: decode: " + err.Error()
		q.reset()
		e.writeErrReq(w, q, http.StatusBadRequest, msg, 0)
		return
	}
	if err := e.validateTasks(q); err != nil {
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
		return
	}
	rep, err := e.dispatch(q)
	switch {
	case err == nil:
		out = sloOK
		repErr := ""
		if rep.repErr != nil {
			repErr = rep.repErr.Error()
		}
		q.out = appendStepResponse(q.out[:0], rep.accepted, repErr, rep.slot, rep.base, rep.assigned)
		e.writeBody(w, q, http.StatusOK)
	case IsShed(err):
		out = sloShed
		e.writeErrReq(w, q, http.StatusTooManyRequests, err.Error(), rep.accepted)
	default:
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
	}
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(e.Stats()) //nolint:errcheck // client gone is fine
}

// writeStatus renders the plain-text serving status: counters, request
// latencies, then the shared obs phase/run breakdown when wired.
func (e *Engine) writeStatus(w http.ResponseWriter, up time.Duration) {
	st := e.Stats()
	fmt.Fprintf(w, "lfscd — up %v\n", up.Round(time.Millisecond))
	fmt.Fprintf(w, "slot %d  cum reward %.4f\n", st.Slot, st.CumReward)
	fmt.Fprintf(w, "tasks: submitted %d  decided %d  assigned %d  reported %d\n",
		st.SubmittedTasks, st.DecidedTasks, st.AssignedTasks, st.ReportedTasks)
	fmt.Fprintf(w, "shed: requests %d  tasks %d\n", st.ShedRequests, st.ShedTasks)
	fmt.Fprintf(w, "late: slots %d  reports %d\n", st.LateSlots, st.LateReports)
	if sn := st.Scenario; sn != nil {
		fmt.Fprintf(w, "scenario %s: period %d  up %d  events: sleeps %d fails %d rejoins %d\n",
			sn.Digest, sn.Slots, sn.UpSCNs, sn.Sleeps, sn.Fails, sn.Rejoins)
	}
	if st.SLO != nil {
		s := st.SLO
		budget := "ok"
		if !s.ShedWithinBudget {
			budget = "OVER BUDGET"
		}
		fmt.Fprintf(w, "slo[%ds]: n=%d  p50=%v p99=%v p999=%v  shed %.2f%% (budget %.2f%%, %s)\n",
			s.WindowSec, s.Requests,
			time.Duration(s.P50NS).Round(time.Microsecond),
			time.Duration(s.P99NS).Round(time.Microsecond),
			time.Duration(s.P999NS).Round(time.Microsecond),
			100*s.ShedRate, 100*s.ShedBudget, budget)
	}
	// Per-shard lines read only the shard atomics — the learner state
	// itself is guarded by the engine mutex.
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "shard %d: scns %d  routed subs %d  tasks %d  shed %d  last decide %v observe %v\n",
			sh.Shard, sh.SCNs, sh.RoutedSubs, sh.RoutedTasks, sh.ShedTasks,
			time.Duration(sh.LastDecideNS).Round(time.Microsecond),
			time.Duration(sh.LastObserveNS).Round(time.Microsecond))
	}
	for _, ls := range []obs.PhaseStat{st.SubmitLatency, st.ReportLatency, st.StepLatency, st.ShedLatency} {
		if ls.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%s latency: n=%d mean=%v p50=%v p90=%v p99=%v p999=%v\n",
			ls.Phase, ls.Count,
			time.Duration(ls.MeanNS).Round(time.Microsecond),
			time.Duration(ls.P50NS).Round(time.Microsecond),
			time.Duration(ls.P90NS).Round(time.Microsecond),
			time.Duration(ls.P99NS).Round(time.Microsecond),
			time.Duration(ls.P999NS).Round(time.Microsecond))
	}
	if e.cfg.Probe != nil || e.cfg.Registry != nil {
		fmt.Fprintf(w, "\n")
		obs.WriteStatus(w, e.cfg.Probe, e.cfg.Registry, up)
	}
}
