// Package qaserve is the HTTP/JSON serving layer over the staged
// question answering pipeline — the subsystem that turns core.System
// into a service. It exposes:
//
//	POST /v1/answer        {"question": "..."}        → one answer object
//	POST /v1/update        SPARQL UPDATE (INSERT DATA / DELETE DATA) →
//	                       {"generation", "added", "removed", "ops"};
//	                       the whole request commits as one durable,
//	                       atomic batch through Config.Updater, gated by
//	                       Config.UpdateToken (Bearer auth)
//	GET  /healthz          liveness + KB snapshot info
//	GET  /readyz           readiness; during boot the Gate answers 503
//	                       here until the KB is loaded and WAL recovery
//	                       has finished
//	GET  /metrics          Prometheus text format: request counters,
//	                       update counters, cache hit/miss and entries,
//	                       per-stage latency histograms built from each
//	                       request's Trace, the Go runtime's heap and GC
//
// A client that wants many answers sends many /v1/answer requests,
// pipelined over keep-alive connections.
//
// A request body is one JSON object of at most 1 MiB; anything after
// the object but whitespace answers 400. Each question is first looked
// up in the answer cache (core.System.Lookup). A hit is written as it
// is: it runs no pipeline, so no timeout applies — it is served
// whatever budget is left, unless that budget is already spent (shed,
// below). A miss runs the pipeline (core.System.Compute) under a
// context derived from the HTTP request's with the configured
// per-request timeout — lowered by the client's X-Request-Budget header
// when one is sent — attached, so a deadline expiring mid-pipeline
// cancels candidate queries between join steps and the request answers
// 504 with status "canceled". A /v1/update commit runs under the same
// configured timeout (the budget header does not apply to it) and
// answers 504 when the deadline passes before the commit. The /metrics
// answer-cache hit and miss counters count lookups, as the answer
// cache's own statistics do: a request shed by admission after its
// lookup, or timed out after it, counts.
//
// # Overload and failure behavior
//
// Admission control sheds load with 503 + Retry-After: 1 before the
// pipeline is entered. There is one admission path: a fixed in-flight
// limit L (Config.MaxInFlight, 0 = unlimited) with a priority reserve
// R = L/4. A request is admitted while the in-flight count is below its
// priority's threshold:
//
//	normal   L       a cache miss on /v1/answer, and /v1/update
//	cached   L + R   a question the answer-cache lookup hit
//
// so a cache hit, which costs microseconds and no fan-out, rides the
// reserve and sheds last. Below L = 4 the reserve is 0 and the limit
// is a plain cap. Requests whose deadline budget is already spent at
// admission are shed the same way. Recovered pipeline panics and
// injected faults answer 500 with the trace attached rather than
// tearing down the connection. A
// poisoned WAL flips the server into read-only degraded mode: updates
// answer 501, /readyz reports "degraded", reads keep serving the
// in-memory store. Graceful shutdown is cmd/qaserve's job:
// Gate.SetDraining turns new requests away with 503 + Retry-After
// while http.Server.Shutdown drains the in-flight ones. When
// Config.Chaos is set, the injector rides the context of every
// /v1/answer and /v1/update request, so the pipeline's stage and shard
// fault points and the WAL's commit fault points can fire
// (internal/chaos).
package qaserve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/shard"
)

// Config assembles a Server.
type Config struct {
	// Sys is the pipeline to serve (required).
	Sys *core.System
	// RequestTimeout bounds each request's pipeline run and each
	// /v1/update commit (0 = no timeout); a cache hit runs no pipeline,
	// so it is never timed out.
	RequestTimeout time.Duration
	// MaxInFlight is the in-flight limit L: normal requests beyond it
	// and cache hits beyond L + L/4 answer 503 (0 = unlimited; see the
	// package comment's table).
	MaxInFlight int
	// Chaos, when non-nil, rides the context of every /v1/answer and
	// /v1/update request so the fault points below them can fire; its
	// cumulative injections are exported on /metrics. Nil (the
	// default) keeps every fault point inert.
	Chaos *chaos.Injector
	// Updater commits SPARQL UPDATE batches durably (typically the WAL
	// manager); nil leaves the server read-only and /v1/update answers
	// 501.
	Updater Updater
	// UpdateToken, when non-empty, gates /v1/update behind
	// "Authorization: Bearer <token>". Read endpoints are never gated.
	UpdateToken string
}

// Server is the HTTP serving layer. Build with New, mount Handler.
type Server struct {
	sys         *core.System
	timeout     time.Duration
	updater     Updater
	updateToken string
	chaos       *chaos.Injector // nil = fault points inert
	m           *metrics
	// threshold is the admission bound of each priority: a slot is taken
	// while m.inflight is below it.
	threshold [numPriorities]int64
}

// New builds a Server over the assembled pipeline.
func New(cfg Config) *Server {
	s := &Server{sys: cfg.Sys, timeout: cfg.RequestTimeout, updater: cfg.Updater,
		updateToken: cfg.UpdateToken, chaos: cfg.Chaos, m: newMetrics()}
	s.threshold = thresholds(cfg.MaxInFlight)
	return s
}

// Handler returns the route mux, wrapped in the panic-recovery
// backstop (see resilience.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/answer", s.handleAnswer)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.recoverware(mux)
}

// AnswerRequest is the /v1/answer body.
type AnswerRequest struct {
	Question string `json:"question"`
	// AllowPartial opts the request into degraded partial answers on a
	// sharded system: when shards are unreachable, the live shards
	// answer and the response is stamped degraded with shards_total /
	// shards_answered. Without it an unreachable shard fails the
	// request with 503 + Retry-After. Ignored on single-store systems.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// jsonContentType is the Content-Type header value of every JSON reply,
// shared: net/http only reads it.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// priority orders shedding under the in-flight limit: lower sheds first.
type priority uint8

const (
	prioNormal priority = iota // a cache miss on /v1/answer, and /v1/update
	prioCached                 // a question the answer-cache lookup hit
	numPriorities
)

// priorityNames label the shed counters on /metrics.
var priorityNames = [numPriorities]string{"normal", "cached"}

// thresholds returns the admission bound of each priority under the
// in-flight limit l: l and l + l/4 (a plain cap below l = 4), or no
// bound when l is 0.
func thresholds(l int) [numPriorities]int64 {
	if l <= 0 {
		return [numPriorities]int64{math.MaxInt64, math.MaxInt64}
	}
	limit, reserve := int64(l), int64(l/4)
	return [numPriorities]int64{limit, limit + reserve}
}

// acquire takes an in-flight slot at the given priority, answering
// 503 + Retry-After — and counting the shed — when the server is full
// for that priority. An admitted request calls freeSlot when it is done.
func (s *Server) acquire(w http.ResponseWriter, p priority) bool {
	if s.trySlot(p) {
		return true
	}
	s.m.shed[p].Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server at capacity"})
	return false
}

// trySlot takes an in-flight slot at priority p without blocking and
// reports whether it got one.
func (s *Server) trySlot(p priority) bool {
	for {
		n := s.m.inflight.Load()
		if n >= s.threshold[p] {
			return false
		}
		if s.m.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// freeSlot returns a slot trySlot took.
func (s *Server) freeSlot() { s.m.inflight.Add(-1) }

// lookup starts a question with the answer-cache lookup and counts it:
// every lookup, served or not, so the exported hit and miss counters
// equal the answer cache's own statistics. A System without a cache
// looks nothing up (its Result has no Trace yet) and counts nothing — a
// miss there would fabricate a 0% hit rate for a cache that does not
// exist.
func (s *Server) lookup(question string) *core.Result {
	res := s.sys.Lookup(question)
	switch {
	case res.CacheHit:
		s.m.cacheHits.Add(1)
	case res.Trace != nil:
		s.m.cacheMisses.Add(1)
	}
	return res
}

// answer finishes a looked-up question: on a miss it runs the pipeline
// under the request's context plus the given timeout (the configured
// one, possibly lowered by the client's budget header); hit or miss, it
// records the trace metrics. The chaos injector, when
// configured, rides the context so stage-boundary fault points can
// fire; partial opts the request into degraded answers on a sharded
// system (shard.WithPartialOK).
func (s *Server) answer(r *http.Request, res *core.Result, timeout time.Duration, partial bool) {
	if !res.CacheHit {
		ctx := chaos.With(r.Context(), s.chaos)
		if partial {
			ctx = shard.WithPartialOK(ctx)
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		s.sys.Compute(ctx, res)
		// Count partial answers actually served: a fail-fast 503 and a
		// timed-out request also carry an honest degraded stamp, but the
		// client got no answer from it.
		if res.Degraded && res.Status != core.StatusUnavailable && res.Status != core.StatusCanceled {
			s.m.partialAnswers.Add(1)
		}
	}
	s.observe(res)
}

// observe records a served Result's trace on the latency histograms.
func (s *Server) observe(res *core.Result) {
	if res.Trace == nil {
		return
	}
	for _, st := range res.Trace.Stages {
		s.m.stages[st.Stage].observe(st.Duration)
	}
	s.m.total.observe(res.Trace.Total())
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req AnswerRequest
	if err := decodeBody(r.Body, &req); err != nil || strings.TrimSpace(req.Question) == "" {
		s.m.requestsBad.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"question\": \"...\"}"})
		return
	}
	budget, ok := s.requestBudget(r)
	if !ok {
		s.shedExpired(w)
		return
	}
	// The lookup comes first: a hit is admitted at the cached priority
	// (shed last; it costs microseconds) and written with no timer,
	// since it runs nothing a deadline could cut.
	res := s.lookup(req.Question)
	p := prioNormal
	if res.CacheHit {
		p = prioCached
	}
	if !s.acquire(w, p) {
		return
	}
	defer s.freeSlot()

	s.answer(r, res, budget, req.AllowPartial)
	switch res.Status {
	case core.StatusCanceled:
		if r.Context().Err() != nil {
			return // client went away; nothing useful to write
		}
		s.m.requestsTimeout.Add(1)
		s.writeResult(w, http.StatusGatewayTimeout, res)
	case core.StatusUnavailable:
		// A shard was unreachable and the request did not allow partial
		// answers: the client can retry (the breaker cooldown is short)
		// or resend with allow_partial for a degraded answer now.
		s.m.requestsUnavailable.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeResult(w, http.StatusServiceUnavailable, res)
	case core.StatusInternal:
		s.m.requestsInternal.Add(1)
		s.writeResult(w, http.StatusInternalServerError, res)
	default:
		s.m.requestsOK.Add(1)
		s.writeResult(w, http.StatusOK, res)
	}
}

// handleHealthz is the liveness probe: once the Server handles traffic
// it always answers 200 (readiness is /readyz; during boot the Gate
// answers both). The snapshot info rides along for operators.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn := s.sys.KB.Store.Snapshot()
	body := map[string]any{
		"status":     "ok",
		"triples":    sn.Len(),
		"generation": sn.Gen(),
		"inflight":   s.m.inflight.Load(),
	}
	if c := s.sys.Cluster(); c != nil {
		body["shards"] = c.N()
		states := make([]string, 0, c.N())
		for _, st := range c.Stats() {
			states = append(states, st.Breaker.String())
		}
		body["shard_breakers"] = states
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the readiness probe: reaching the Server at all means
// the KB is loaded and WAL recovery finished (the Gate answered 503
// until then). It reports "ready" — or "degraded" once the WAL has
// poisoned itself: reads still serve the in-memory store (so the
// instance stays in rotation with 200), but updates refuse and
// operators see the state.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sn := s.sys.KB.Store.Snapshot()
	status, writable := "ready", s.updater != nil
	if s.degraded() {
		status, writable = "degraded", false
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"triples":    sn.Len(),
		"generation": sn.Gen(),
		"writable":   writable,
	})
}

// renderPlanCache writes the counters of the System's plan-shape cache,
// read at scrape time (they are cumulative across requests, unlike the
// per-trace answer-cache counters).
func (s *Server) renderPlanCache(sb *strings.Builder) {
	hits, misses, evictions := s.sys.PlanCacheStats()
	fmt.Fprintf(sb, "# HELP qaserve_plancache_hits_total SPARQL plan-shape cache hits.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_plancache_hits_total counter\n")
	fmt.Fprintf(sb, "qaserve_plancache_hits_total %d\n", hits)
	fmt.Fprintf(sb, "# HELP qaserve_plancache_misses_total SPARQL plan-shape cache misses.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_plancache_misses_total counter\n")
	fmt.Fprintf(sb, "qaserve_plancache_misses_total %d\n", misses)
	fmt.Fprintf(sb, "# HELP qaserve_plancache_evictions_total SPARQL plan-shape cache evictions (capacity; shapes survive store writes).\n")
	fmt.Fprintf(sb, "# TYPE qaserve_plancache_evictions_total counter\n")
	fmt.Fprintf(sb, "qaserve_plancache_evictions_total %d\n", evictions)
}

// renderShards writes the per-shard failure-domain counters and
// breaker states, read from the System's cluster at scrape time.
// Single-store servers emit nothing (no fabricated zero-shard series).
func (s *Server) renderShards(sb *strings.Builder) {
	c := s.sys.Cluster()
	if c == nil {
		return
	}
	stats := c.Stats()
	fmt.Fprintf(sb, "# HELP qaserve_shard_attempts_total Shard read attempts by shard.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_shard_attempts_total counter\n")
	for i, st := range stats {
		fmt.Fprintf(sb, "qaserve_shard_attempts_total{shard=\"%d\"} %d\n", i, st.Attempts)
	}
	fmt.Fprintf(sb, "# HELP qaserve_shard_retries_total Backoff retries after failed attempts, by shard.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_shard_retries_total counter\n")
	for i, st := range stats {
		fmt.Fprintf(sb, "qaserve_shard_retries_total{shard=\"%d\"} %d\n", i, st.Retries)
	}
	fmt.Fprintf(sb, "# HELP qaserve_shard_failures_total Shard calls that exhausted the retry ladder, by shard.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_shard_failures_total counter\n")
	for i, st := range stats {
		fmt.Fprintf(sb, "qaserve_shard_failures_total{shard=\"%d\"} %d\n", i, st.Failures)
	}
	fmt.Fprintf(sb, "# HELP qaserve_shard_breaker_rejects_total Shard calls rejected by an open circuit breaker, by shard.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_shard_breaker_rejects_total counter\n")
	for i, st := range stats {
		fmt.Fprintf(sb, "qaserve_shard_breaker_rejects_total{shard=\"%d\"} %d\n", i, st.BreakerRejects)
	}
	fmt.Fprintf(sb, "# HELP qaserve_shard_breaker_state Circuit breaker state by shard (0 closed, 1 open, 2 half-open).\n")
	fmt.Fprintf(sb, "# TYPE qaserve_shard_breaker_state gauge\n")
	for i, st := range stats {
		fmt.Fprintf(sb, "qaserve_shard_breaker_state{shard=\"%d\"} %d\n", i, int(st.Breaker))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	s.m.render(&sb)
	fmt.Fprintf(&sb, "# HELP qaserve_cache_entries Entries the answer cache holds.\n# TYPE qaserve_cache_entries gauge\nqaserve_cache_entries %d\n", s.sys.CacheEntries())
	s.renderPlanCache(&sb)
	s.renderShards(&sb)
	s.renderResilience(&sb)
	renderRuntime(&sb)
	renderStore(&sb, s.sys.KB.Store.Snapshot())
	fmt.Fprintf(&sb, "# HELP qaserve_boot_seconds Wall time of each boot phase, in boot order.\n# TYPE qaserve_boot_seconds gauge\n")
	for _, p := range s.sys.Boot {
		fmt.Fprintf(&sb, "qaserve_boot_seconds{phase=%q} %g\n", p.Name, p.Elapsed.Seconds())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(sb.String()))
}
