// Package qaserve is the HTTP/JSON serving layer over the staged
// question answering pipeline — the subsystem that turns core.System
// into a service. It exposes:
//
//	POST /v1/answer        {"question": "..."}        → one AnswerResponse
//	POST /v1/answer/batch  {"questions": ["...", …]}  → {"results": [AnswerResponse, …]}
//	                       (questions fan out across up to GOMAXPROCS
//	                       workers, one in-flight slot each; results keep
//	                       request order)
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
// 504 with status "canceled". The /metrics answer-cache hit and miss
// counters count lookups, as the answer cache's own statistics do: a
// request shed by admission after its lookup, or timed out after it,
// counts.
//
// # Overload and failure behavior
//
// Admission control sheds load with 503 (always carrying a Retry-After
// hint) before the pipeline is entered. There is one admission path: a
// fixed in-flight limit L (Config.MaxInFlight, 0 = unlimited) with a
// priority reserve R = L/4. A request is admitted while the in-flight
// count is below its priority's threshold:
//
//	batch    L − R   /v1/answer/batch and each extra batch worker (Retry-After 2)
//	normal   L       a cache miss on /v1/answer, and /v1/update     (Retry-After 1)
//	cached   L + R   a question the answer-cache lookup hit         (Retry-After 1)
//
// so batch work, which callers retry wholesale, sheds first, and a
// cache hit, which costs microseconds and no fan-out, rides the
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
// Config.Chaos is set, the injector rides every request context so the
// pipeline's stage-boundary fault points can fire (internal/chaos).
package qaserve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/shard"
)

// Config assembles a Server.
type Config struct {
	// Sys is the pipeline to serve (required).
	Sys *core.System
	// RequestTimeout bounds each request's pipeline run (0 = no
	// timeout); a cache hit runs none, so it is never timed out. Batch
	// requests get one timeout per contained question.
	RequestTimeout time.Duration
	// MaxInFlight is the in-flight limit L: normal requests beyond it,
	// batch work beyond L − L/4 and cache hits beyond L + L/4 answer 503
	// (0 = unlimited; see the package comment's table).
	MaxInFlight int
	// Chaos, when non-nil, rides every request context so the
	// pipeline's stage-boundary fault points can fire; its cumulative
	// injections are exported on /metrics. Nil (the default) keeps
	// every fault point inert.
	Chaos *chaos.Injector
	// MaxBatch bounds the questions accepted by /v1/answer/batch
	// (default 64).
	MaxBatch int
	// Updater commits SPARQL UPDATE batches durably (typically the WAL
	// manager); nil leaves the server read-only and /v1/update answers
	// 501.
	Updater Updater
	// UpdateToken, when non-empty, gates /v1/update behind
	// "Authorization: Bearer <token>". Read endpoints are never gated.
	UpdateToken string
	// UpdateTimeout bounds one /v1/update commit (0 falls back to
	// RequestTimeout).
	UpdateTimeout time.Duration
	// Cluster is the sharded scatter-gather tier the System executes
	// over, when it runs sharded (core.Config.Cluster): the server only
	// uses it for observability — per-shard failure-domain counters and
	// breaker states on /metrics and shard info on the health payloads.
	// Nil for single-store systems.
	Cluster *shard.Cluster
}

// Server is the HTTP serving layer. Build with New, mount Handler.
type Server struct {
	sys      *core.System
	timeout  time.Duration
	maxBatch int
	// batchWorkers caps the workers a /v1/answer/batch request fans its
	// questions across: GOMAXPROCS, further bounded per request by the
	// batch size and the free in-flight slots.
	batchWorkers  int
	updater       Updater
	updateToken   string
	updateTimeout time.Duration
	chaos         *chaos.Injector // nil = fault points inert
	cluster       *shard.Cluster  // nil = single-store
	m             *metrics
	// threshold is the admission bound of each priority: a slot is taken
	// while m.inflight is below it.
	threshold [numPriorities]int64
}

// New builds a Server over the assembled pipeline.
func New(cfg Config) *Server {
	s := &Server{sys: cfg.Sys, timeout: cfg.RequestTimeout, maxBatch: cfg.MaxBatch,
		batchWorkers: runtime.GOMAXPROCS(0), updater: cfg.Updater,
		updateToken: cfg.UpdateToken, updateTimeout: cfg.UpdateTimeout,
		chaos: cfg.Chaos, cluster: cfg.Cluster, m: newMetrics()}
	if s.maxBatch <= 0 {
		s.maxBatch = 64
	}
	s.threshold = thresholds(cfg.MaxInFlight)
	return s
}

// Handler returns the route mux, wrapped in the panic-recovery
// backstop (see resilience.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/answer", s.handleAnswer)
	mux.HandleFunc("POST /v1/answer/batch", s.handleBatch)
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

// BatchRequest is the /v1/answer/batch body.
type BatchRequest struct {
	Questions []string `json:"questions"`
	// AllowPartial applies the /v1/answer opt-in to every question of
	// the batch; each per-question result carries its own degraded
	// stamp (one question may hit an open breaker while its neighbours
	// answer complete).
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// StageTrace is the JSON projection of one pipeline stage record.
type StageTrace struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
	Candidates int     `json:"candidates,omitempty"`
	CacheHit   bool    `json:"cache_hit,omitempty"`
	// Plan-shape cache outcomes and term-rank sorts for the answer
	// stage's candidate fan-out; all absent when plan caching is
	// disabled (no fabricated misses) and on non-answer stages.
	PlanCacheHits   uint64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses uint64 `json:"plan_cache_misses,omitempty"`
	RankSorts       uint64 `json:"rank_sorts,omitempty"`
	// Scatter-gather shape of the answer stage on a sharded system.
	ShardsTotal    int    `json:"shards_total,omitempty"`
	ShardsAnswered int    `json:"shards_answered,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	Error          string `json:"error,omitempty"`
}

// AnswerResponse is the JSON projection of one pipeline Result: the
// wire schema clients decode into. The server does not encode from it —
// appendResult (reply.go) writes these members straight from the Result.
type AnswerResponse struct {
	Question      string   `json:"question"`
	Status        string   `json:"status"`
	Answered      bool     `json:"answered"`
	Answers       []string `json:"answers,omitempty"`
	WinningSPARQL string   `json:"winning_sparql,omitempty"`
	Error         string   `json:"error,omitempty"`
	CacheHit      bool     `json:"cache_hit"`
	// Degraded marks a partial answer (allow_partial was set and at
	// least one shard was skipped); ShardsTotal / ShardsAnswered give
	// the exact scatter shape on any sharded answer, healthy or not
	// (recovery to undegraded is visible as answered == total). All
	// absent on single-store systems.
	Degraded       bool         `json:"degraded,omitempty"`
	ShardsTotal    int          `json:"shards_total,omitempty"`
	ShardsAnswered int          `json:"shards_answered,omitempty"`
	Trace          []StageTrace `json:"trace,omitempty"`
}

// BatchResponse is the /v1/answer/batch reply.
//
//qalint:ignore unusedexport the documented wire schema of /v1/answer/batch (cmd/qaserve/README.md): reply.go appends the bytes, and clients and tests decode into it.
type BatchResponse struct {
	Results []AnswerResponse `json:"results"`
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
	prioBatch  priority = iota // a batch request, and each extra batch worker's slot
	prioNormal                 // a cache miss on /v1/answer, and /v1/update
	prioCached                 // a question the answer-cache lookup hit
	numPriorities
)

// priorityNames label the shed counters on /metrics; retryAfter is the
// Retry-After hint of a 503 at each priority: batch work is shed first
// and retried wholesale, so it backs off longer.
var (
	priorityNames = [numPriorities]string{"batch", "normal", "cached"}
	retryAfter    = [numPriorities]string{"2", "1", "1"}
)

// thresholds returns the admission bound of each priority under the
// in-flight limit l: l − l/4, l and l + l/4 (a plain cap below l = 4),
// or no bound when l is 0.
func thresholds(l int) [numPriorities]int64 {
	if l <= 0 {
		return [numPriorities]int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}
	}
	limit, reserve := int64(l), int64(l/4)
	return [numPriorities]int64{limit - reserve, limit, limit + reserve}
}

// acquire takes an in-flight slot at the given priority, answering
// 503 + Retry-After — and counting the shed — when the server is full
// for that priority. An admitted request calls freeSlot when it is done.
func (s *Server) acquire(w http.ResponseWriter, p priority) bool {
	if s.trySlot(p) {
		return true
	}
	s.m.shed[p].Add(1)
	w.Header().Set("Retry-After", retryAfter[p])
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server at capacity"})
	return false
}

// trySlot takes an in-flight slot at priority p without blocking and
// reports whether it got one. acquire takes one per request; a batch
// takes one more per worker beyond the first, and a worker it cannot
// get is no shed: the batch was admitted and runs with fewer workers.
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

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(r.Body, &req); err != nil || len(req.Questions) == 0 {
		s.m.requestsBad.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"questions\": [\"...\", ...]}"})
		return
	}
	if len(req.Questions) > s.maxBatch {
		s.m.requestsBad.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("batch of %d exceeds the limit of %d", len(req.Questions), s.maxBatch)})
		return
	}
	budget, ok := s.requestBudget(r)
	if !ok {
		s.shedExpired(w)
		return
	}
	if !s.acquire(w, prioBatch) {
		return
	}
	defer s.freeSlot()

	// The batch holds one in-flight slot; every worker beyond the first
	// charges another, taken non-blockingly, so MaxInFlight keeps
	// bounding *executing pipelines*, not just accepted HTTP requests:
	// a busy server has no spare slots and the batch shrinks toward one
	// worker instead of oversubscribing the CPU.
	workers := min(s.batchWorkers, len(req.Questions))
	extra := 0
	for extra < workers-1 && s.trySlot(prioBatch) {
		extra++
	}
	defer s.m.inflight.Add(int64(-extra))

	// Each question the cache misses runs the full pipeline under its own
	// timeout (s.answer), the pipeline is safe for concurrent callers, and
	// results land at their request index, so the response keeps the
	// request order at every worker count. One worker always runs on the
	// handler's goroutine.
	results := make([]*core.Result, len(req.Questions))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(req.Questions) || r.Context().Err() != nil {
				return
			}
			results[i] = s.lookup(req.Questions[i])
			s.answer(r, results[i], budget, req.AllowPartial)
		}
	}
	for range extra {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if r.Context().Err() != nil {
		return // client went away mid-batch
	}
	// qaserve_requests_total counts HTTP requests, so a batch counts
	// once regardless of size (timed-out members are visible in their
	// per-result status and the stage histograms).
	s.m.requestsOK.Add(1)
	s.writeResults(w, http.StatusOK, `{"results":[`, "]}\n", results...)
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
	if s.cluster != nil {
		body["shards"] = s.cluster.N()
		states := make([]string, 0, s.cluster.N())
		for _, st := range s.cluster.Stats() {
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
// breaker states, read from the cluster at scrape time. Single-store
// servers emit nothing (no fabricated zero-shard series).
func (s *Server) renderShards(sb *strings.Builder) {
	if s.cluster == nil {
		return
	}
	stats := s.cluster.Stats()
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
