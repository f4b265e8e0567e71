package qaserve

// HTTP-level coverage for sharded serving (internal/shard): healthy
// scatter-gather answers are wire-identical to single-store ones and
// stamp the scatter shape; a dead shard yields 503 + Retry-After
// without allow_partial and an accurately-stamped degraded 200 with
// it; each request carries its own flags past an open breaker (a
// question riding the answer cache, another paying the breaker); and a
// seeded chaos soak drives the failure domains hard and then
// asserts full recovery.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/shard"
)

// fastShardConfig keeps the failure-domain timings far from test
// flakiness: generous attempt budget, no breaker unless the test opts
// in by overriding.
func fastShardConfig() shard.Config {
	return shard.Config{
		AttemptTimeout:   5 * time.Second,
		MaxAttempts:      2,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       4 * time.Millisecond,
		BreakerThreshold: 1 << 30,
		Seed:             11,
	}
}

// shardedSystem builds a 3-shard system over a private KB with the
// given failure-domain config and answer-cache size.
func shardedSystem(scfg shard.Config, cacheSize int) *core.System {
	cfg := core.DefaultConfig()
	cfg.KB = kb.Build(kb.DefaultConfig()) // private KB: the store may be mutated
	cfg.CacheSize = cacheSize
	cfg.Cluster = shard.NewCluster(cfg.KB.Store, 3, scfg)
	return core.New(cfg)
}

// shardedServer serves a shardedSystem, updates going through its
// cluster; a non-nil f attaches its injector to the requests while
// armed.
func shardedServer(t testing.TB, scfg shard.Config, f *faults) (*Server, *shard.Cluster, *httptest.Server) {
	t.Helper()
	sys := shardedSystem(scfg, 256)
	srv := New(Config{Sys: sys, Updater: sys.Cluster()})
	h := srv.Handler()
	if f != nil {
		h = f.wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, sys.Cluster(), ts
}

// faults is a test middleware that attaches an injector to each
// request while the test has it armed. A test stops the faults by
// disarming it: the requests after that carry no injector, so no
// fault point fires for them.
type faults struct {
	in    *chaos.Injector
	armed atomic.Bool
}

// armed returns faults for in, armed.
func armed(in *chaos.Injector) *faults {
	f := &faults{in: in}
	f.armed.Store(true)
	return f
}

func (f *faults) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.armed.Load() {
			r = r.WithContext(chaos.With(r.Context(), f.in))
		}
		h.ServeHTTP(w, r)
	})
}

func answerWire(t testing.TB, client *http.Client, url string, req AnswerRequest) (int, string, AnswerResponse) {
	t.Helper()
	resp, body := postJSON(t, client, url+"/v1/answer", req)
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad JSON: %v (%s)", err, body)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), ar
}

// TestShardedAnswerEndpoint: the healthy sharded server is
// indistinguishable from the single-store one on the wire except for
// the scatter shape, and updates applied through the cluster are
// visible to subsequent sharded reads.
func TestShardedAnswerEndpoint(t *testing.T) {
	_, cluster, ts := shardedServer(t, fastShardConfig(), nil)
	client := ts.Client()

	status, _, ar := answerWire(t, client, ts.URL, AnswerRequest{Question: "Which book is written by Orhan Pamuk?"})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%+v)", status, ar)
	}
	if !ar.Answered || ar.Status != "answered" || len(ar.Answers) != 5 {
		t.Fatalf("sharded answer = %+v, want the 5 single-store answers", ar)
	}
	if ar.Degraded || ar.ShardsTotal != 3 || ar.ShardsAnswered != 3 {
		t.Fatalf("healthy scatter shape = degraded=%v %d/%d, want 3/3 undegraded",
			ar.Degraded, ar.ShardsAnswered, ar.ShardsTotal)
	}
	var answerStage *StageTrace
	for i := range ar.Trace {
		if ar.Trace[i].Stage == "answer" {
			answerStage = &ar.Trace[i]
		}
	}
	if answerStage == nil || answerStage.ShardsTotal != 3 || answerStage.ShardsAnswered != 3 {
		t.Fatalf("answer-stage trace missing the scatter shape: %+v", answerStage)
	}

	// /healthz reports the shard count and per-shard breaker states.
	hresp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Shards   int      `json:"shards"`
		Breakers []string `json:"shard_breakers"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hz.Shards != 3 || len(hz.Breakers) != 3 {
		t.Fatalf("healthz shards = %+v, want 3 with 3 breaker states", hz)
	}
	for _, st := range hz.Breakers {
		if st != "closed" {
			t.Fatalf("healthy breaker state = %q, want closed", st)
		}
	}

	// An update through the cluster mirrors into every shard: the new
	// value answers through the scatter path.
	if resp, body := postSPARQL(t, client, ts.URL+"/v1/update", "", swapHeight("1.98", "2.11")); resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded update: status %d (%s)", resp.StatusCode, body)
	}
	if ar := askHeight(t, client, ts.URL); !ar.Answered || ar.Answers[0] != "2.11" {
		t.Fatalf("post-update sharded read = %+v, want 2.11", ar)
	}
	if n := cluster.N(); n != 3 {
		t.Fatalf("cluster.N() = %d, want 3", n)
	}
}

// TestShardedUnavailableAndDegraded: with one shard dead, opt-out
// requests answer 503 + Retry-After with status "shard unavailable",
// opt-in requests answer degraded 200 stamped with the exact scatter
// shape, degraded answers never enter the cache, and recovery is
// visible as an undegraded 200 once the fault clears.
func TestShardedUnavailableAndDegraded(t *testing.T) {
	scfg := fastShardConfig()
	scfg.MaxAttempts = 1 // fail fast: retries cannot save a dead shard
	f := armed(chaos.New(5, chaos.Rule{Point: "shard.query.1", Kind: chaos.KindError, Prob: 1}))
	srv, _, ts := shardedServer(t, scfg, f)
	client := ts.Client()
	const q = "Which book is written by Orhan Pamuk?"

	// Opt-out: the shard outage is the server's problem, not a timeout
	// or an internal error — 503 with a retry hint.
	status, retry, ar := answerWire(t, client, ts.URL, AnswerRequest{Question: q})
	if status != http.StatusServiceUnavailable || retry != "1" {
		t.Fatalf("opt-out = %d Retry-After %q, want 503 + 1 (%+v)", status, retry, ar)
	}
	if ar.Status != "shard unavailable" || ar.Answered {
		t.Fatalf("opt-out body = %+v, want status \"shard unavailable\"", ar)
	}

	// Opt-in: a degraded 200 from the two live shards, stamped.
	status, _, ar = answerWire(t, client, ts.URL, AnswerRequest{Question: q, AllowPartial: true})
	if status != http.StatusOK {
		t.Fatalf("opt-in = %d (%+v), want 200", status, ar)
	}
	if !ar.Degraded || ar.ShardsTotal != 3 || ar.ShardsAnswered != 2 {
		t.Fatalf("opt-in shape = degraded=%v %d/%d, want 2/3 degraded",
			ar.Degraded, ar.ShardsAnswered, ar.ShardsTotal)
	}

	// The ledger: an unavailable outcome and a partial answer on the
	// books, per-shard failure counters live.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, w := range []string{
		`qaserve_requests_total{outcome="unavailable"} 1`,
		"qaserve_shard_partial_answers_total 1",
		`qaserve_shard_breaker_state{shard="0"} 0`,
	} {
		if !strings.Contains(string(mbody), w) {
			t.Errorf("metrics missing %q", w)
		}
	}
	if !strings.Contains(string(mbody), `qaserve_shard_failures_total{shard="1"}`) ||
		strings.Contains(string(mbody), `qaserve_shard_failures_total{shard="1"} 0`) {
		t.Errorf("shard 1 failures not counted:\n%s", mbody)
	}

	// Recovery: the fault clears; the same question answers undegraded
	// without allow_partial. The degraded answer must not have been
	// cached — a cache hit here would replay the partial answer.
	f.armed.Store(false)
	status, _, ar = answerWire(t, client, ts.URL, AnswerRequest{Question: q})
	if status != http.StatusOK || ar.Degraded || ar.CacheHit || ar.ShardsAnswered != 3 {
		t.Fatalf("recovery = %d %+v, want a fresh undegraded 3/3 answer", status, ar)
	}
	if got := srv.m.partialAnswers.Load(); got != 1 {
		t.Fatalf("partial answers after recovery = %d, want still 1", got)
	}
}

// TestPartialFlagsPastOpenBreaker: with shard 1's circuit breaker
// open, a cached question rides the answer cache (undegraded, no shard
// reads), while a fresh one pays the open breaker: degraded under
// allow_partial, 503 "shard unavailable" without it.
func TestPartialFlagsPastOpenBreaker(t *testing.T) {
	scfg := fastShardConfig()
	scfg.MaxAttempts = 1
	scfg.BreakerThreshold = 1          // first failure opens the breaker
	scfg.BreakerCooldown = time.Minute // and it stays open for the test
	scfg.BreakerMaxCooldown = time.Minute
	// Not armed yet: first warm the cache on a healthy cluster.
	f := &faults{in: chaos.New(9, chaos.Rule{Point: "shard.query.1", Kind: chaos.KindError, Prob: 1})}
	_, cluster, ts := shardedServer(t, scfg, f)
	client := ts.Client()

	const cachedQ = "Where did Abraham Lincoln die?"
	const freshQ = "Which book is written by Orhan Pamuk?"

	if status, _, ar := answerWire(t, client, ts.URL, AnswerRequest{Question: cachedQ}); status != http.StatusOK || ar.Degraded {
		t.Fatalf("warmup = %d %+v", status, ar)
	}

	// Trip shard 1's breaker: one failed scatter is enough at threshold
	// 1, and the minute-long cooldown keeps it open. The injector is
	// then disarmed — every later degradation is the breaker's doing.
	f.armed.Store(true)
	if status, _, ar := answerWire(t, client, ts.URL, AnswerRequest{Question: freshQ, AllowPartial: true}); status != http.StatusOK || !ar.Degraded {
		t.Fatalf("breaker trip = %d %+v, want degraded 200", status, ar)
	}
	f.armed.Store(false)
	if st := cluster.Stats()[1].Breaker; st != shard.BreakerOpen {
		t.Fatalf("shard 1 breaker = %v, want open", st)
	}

	status, _, cached := answerWire(t, client, ts.URL, AnswerRequest{Question: cachedQ, AllowPartial: true})
	if status != http.StatusOK || !cached.CacheHit || cached.Degraded {
		t.Fatalf("cached question = %d %+v, want an undegraded cache hit", status, cached)
	}
	status, _, fresh := answerWire(t, client, ts.URL, AnswerRequest{Question: freshQ, AllowPartial: true})
	if status != http.StatusOK || !fresh.Degraded || fresh.ShardsTotal != 3 || fresh.ShardsAnswered != 2 || fresh.CacheHit {
		t.Fatalf("fresh question = %d %+v, want 2/3 degraded past the open breaker", status, fresh)
	}
	if rejects := cluster.Stats()[1].BreakerRejects; rejects == 0 {
		t.Fatal("open breaker admitted the fresh question's shard call")
	}

	// The same question without allow_partial refuses instead of lying.
	status, retry, fresh := answerWire(t, client, ts.URL, AnswerRequest{Question: freshQ})
	if status != http.StatusServiceUnavailable || retry != "1" || fresh.Status != "shard unavailable" || fresh.Answered {
		t.Fatalf("opt-out fresh question = %d (Retry-After %q) %+v, want 503 \"shard unavailable\"", status, retry, fresh)
	}
}

// TestShardChaosSoak drives the sharded server through a seeded storm
// of shard-level latency, errors and panics (finite Limits so the
// faults provably stop), then asserts full recovery: every question
// answers undegraded, the breakers close again, and no goroutine —
// timed-out attempts, scatter workers, retry timers — outlives its
// request. Shard 0's latency is ten times the attempt timeout, so each
// of its faults takes the timeout-then-retry path.
func TestShardChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	scfg := fastShardConfig()
	scfg.AttemptTimeout = 50 * time.Millisecond
	scfg.MaxAttempts = 2
	scfg.BreakerThreshold = 3
	scfg.BreakerCooldown = 50 * time.Millisecond
	scfg.BreakerMaxCooldown = 400 * time.Millisecond
	f := armed(chaos.New(1234,
		chaos.Rule{Point: "shard.query.0", Kind: chaos.KindLatency, Prob: 0.3, Latency: 500 * time.Millisecond, Limit: 12},
		chaos.Rule{Point: "shard.query.1", Kind: chaos.KindError, Prob: 0.4, Limit: 12},
		chaos.Rule{Point: "shard.query.2", Kind: chaos.KindPanic, Prob: 0.2, Limit: 6},
	))
	srv, cluster, ts := shardedServer(t, scfg, f)
	client := ts.Client()

	// Phase 1: the storm. Alternate opt-in and opt-out; every response
	// must be a well-formed 200 or 503 — never a 500, never a hung
	// request (the per-attempt budget bounds each shard call).
	ask := func(i int, req AnswerRequest) {
		status, retry, ar := answerWire(t, client, ts.URL, req)
		switch status {
		case http.StatusOK:
			if ar.Degraded && (ar.ShardsAnswered >= ar.ShardsTotal || !req.AllowPartial) {
				t.Fatalf("soak %d: inconsistent degraded stamp %+v", i, ar)
			}
		case http.StatusServiceUnavailable:
			if retry != "1" || ar.Status != "shard unavailable" {
				t.Fatalf("soak %d: 503 without the retry contract: %q %+v", i, retry, ar)
			}
		default:
			t.Fatalf("soak %d: status %d (%+v)", i, status, ar)
		}
	}
	for i := 0; i < 60; i++ {
		ask(i, AnswerRequest{Question: soakQuestions[i%len(soakQuestions)], AllowPartial: i%2 == 0})
		if i%10 == 9 {
			// Every tenth step, the first three questions in order
			// under allow_partial.
			for _, q := range soakQuestions[:3] {
				ask(i, AnswerRequest{Question: q, AllowPartial: true})
			}
		}
	}

	if st := cluster.Stats()[0]; st.Retries == 0 {
		t.Fatalf("shard 0 never retried a timed-out attempt: %+v", st)
	}

	// Phase 2: the faults stop; the breakers heal within a few
	// cooldowns and every question answers undegraded again.
	f.armed.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := true
		for i, st := range cluster.Stats() {
			if st.Breaker != shard.BreakerClosed {
				healthy = false
				if time.Now().After(deadline) {
					t.Fatalf("shard %d breaker stuck %v after recovery", i, st.Breaker)
				}
			}
		}
		// Traffic drives half-open probes; keep asking until closed.
		status, _, ar := answerWire(t, client, ts.URL,
			AnswerRequest{Question: soakQuestions[0], AllowPartial: true})
		if status != http.StatusOK {
			t.Fatalf("recovery answer status = %d (%+v)", status, ar)
		}
		if healthy && !ar.Degraded && ar.ShardsAnswered == ar.ShardsTotal {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < len(soakQuestions); i++ {
		status, _, ar := answerWire(t, client, ts.URL, AnswerRequest{Question: soakQuestions[i]})
		if status != http.StatusOK || ar.Degraded {
			t.Fatalf("post-soak answer %d = %d %+v, want undegraded 200", i, status, ar)
		}
	}
	if srv.m.panics.Load() != 0 {
		t.Fatalf("shard faults leaked %d handler panics", srv.m.panics.Load())
	}

	// Phase 3: nothing leaks. Timed-out attempts, scatter workers and
	// backoff timers must all have unwound with their requests.
	ts.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d at start, %d after the soak\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
