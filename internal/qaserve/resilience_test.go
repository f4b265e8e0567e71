package qaserve

// Tests for the overload and failure behavior: admission with
// priority shedding, the request budget header, chaos faults over live HTTP, the panic backstop, shutdown draining,
// and the WAL-poisoned degraded mode.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// TestAdaptivePriorityShedsOverHTTP: with the limit full, a normal
// request answers 503 + Retry-After, while a cache-eligible request
// rides the reserve and still answers.
func TestAdaptivePriorityShedsOverHTTP(t *testing.T) {
	srv := New(Config{Sys: testSystem(t), MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the cache so the probe classifies this question as Cached.
	warm := AnswerRequest{Question: "Where did Abraham Lincoln die?"}
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status = %d (%s)", resp.StatusCode, body)
	}

	// Fill the limit (4) directly; reserve = 4/4 = 1, so the
	// thresholds are: normal < 4, cached < 5.
	for i := 0; i < 4; i++ {
		if !srv.trySlot(prioNormal) {
			t.Fatalf("fill %d rejected", i)
		}
	}
	defer func() {
		for i := 0; i < 4; i++ {
			srv.freeSlot()
		}
	}()

	// A question no test has cached stays at Normal priority.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan? (uncached)"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("full-server normal: status %d, Retry-After %q, want 503/1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// The cached question is admitted into the reserve and answers.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer", warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-server cached: status %d (%s), want 200", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.CacheHit {
		t.Fatalf("reserve admission did not hit the cache: %+v", ar)
	}

	// The shedding is visible on /metrics, and the rejected outcome is
	// the sum of the per-priority sheds.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, w := range []string{
		`qaserve_requests_total{outcome="rejected"} 1`,
		`qaserve_admission_shed_total{priority="normal"} 1`,
		`qaserve_admission_shed_total{priority="cached"} 0`,
	} {
		if !strings.Contains(string(mbody), w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// TestAdaptiveServesNormally: under no load a server at qaserve's
// default limit answers, and its slot comes back.
func TestAdaptiveServesNormally(t *testing.T) {
	srv := New(Config{Sys: testSystem(t), MaxInFlight: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if ar := askHeight(t, ts.Client(), ts.URL); !ar.Answered || ar.Answers[0] != "1.98" {
		t.Fatalf("answer = %+v", ar)
	}
	if n := srv.m.inflight.Load(); n != 0 {
		t.Fatalf("inflight = %d after the request finished", n)
	}
}

// TestRequestBudgetHeader: a spent budget is shed at admission before
// any pipeline work; a generous or malformed one changes nothing.
func TestRequestBudgetHeader(t *testing.T) {
	srv := New(Config{Sys: testSystem(t), RequestTimeout: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(budget string) (*http.Response, []byte) {
		req, err := http.NewRequest("POST", ts.URL+"/v1/answer",
			strings.NewReader(`{"question": "How tall is Michael Jordan?"}`))
		if err != nil {
			t.Fatal(err)
		}
		if budget != "" {
			req.Header.Set(BudgetHeader, budget)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	resp, body := post("0s")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("spent budget: status %d (%s), want 503 with Retry-After", resp.StatusCode, body)
	}
	if resp, body := post("-5ms"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("negative budget: status %d (%s)", resp.StatusCode, body)
	}
	if resp, body := post("2s"); resp.StatusCode != http.StatusOK {
		t.Fatalf("generous budget: status %d (%s)", resp.StatusCode, body)
	}
	if resp, body := post("not-a-duration"); resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed budget ignored: status %d (%s)", resp.StatusCode, body)
	}
}

// TestChaosFaultOverHTTP: an injected stage fault answers 500 with
// status "internal error" and the trace attached; once the rule is
// exhausted the same question answers normally, and the injection is
// exported on /metrics.
func TestChaosFaultOverHTTP(t *testing.T) {
	in := chaos.New(7,
		chaos.Rule{Point: "stage.answer", Kind: chaos.KindError, Prob: 1, Limit: 1},
		chaos.Rule{Point: "stage.triplex", Kind: chaos.KindPanic, Prob: 1, Limit: 1})
	srv := New(Config{Sys: testSystem(t), Chaos: in})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First request: the triplex panic fires (recovered at the stage
	// boundary into a typed error — the connection survives).
	q := AnswerRequest{Question: "When did Frank Herbert die? (chaos)"}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer", q)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic-injected status = %d (%s), want 500", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Status != "internal error" || !strings.Contains(ar.Error, "chaos") {
		t.Fatalf("panic-injected response = %+v", ar)
	}

	// Second request: the answer-stage error fires.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/answer", q)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("error-injected status = %d (%s), want 500", resp.StatusCode, body)
	}

	// Both rules exhausted: the question answers, and was never cached
	// while failing.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/answer", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos status = %d (%s), want 200", resp.StatusCode, body)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, w := range []string{
		`qaserve_chaos_injections_total{point="stage.answer",kind="error"} 1`,
		`qaserve_chaos_injections_total{point="stage.triplex",kind="panic"} 1`,
		`qaserve_requests_total{outcome="error"} 2`,
	} {
		if !strings.Contains(string(mbody), w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// TestRecoverwareBackstop: a panic escaping a handler itself answers
// 500 instead of net/http's connection teardown, and is counted.
func TestRecoverwareBackstop(t *testing.T) {
	srv := New(Config{Sys: testSystem(t)})
	h := srv.recoverware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("connection torn down instead of 500: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "handler bug") {
		t.Errorf("panic value missing from body: %s", body)
	}
	if got := srv.m.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

// TestGateDraining: SetDraining turns every route into 503 +
// Retry-After while the liveness probe stays 200, so orchestrators
// neither kill the process early nor route new traffic to it.
func TestGateDraining(t *testing.T) {
	g := NewGate()
	g.SetReady(New(Config{Sys: testSystem(t)}).Handler())
	ts := httptest.NewServer(g)
	defer ts.Close()

	if ar := askHeight(t, ts.Client(), ts.URL); !ar.Answered {
		t.Fatalf("pre-drain answer = %+v", ar)
	}
	g.SetDraining()
	if !g.draining.Load() {
		t.Fatal("not draining after SetDraining")
	}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining /v1/answer = %d, want 503 with Retry-After", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), "draining") {
		t.Fatalf("draining /healthz = %d %s, want 200 draining", hresp.StatusCode, hbody)
	}
}

// TestPoisonedWALDegradesOverHTTP is the degraded-mode acceptance
// test, over live HTTP with the real WAL on the fault-injecting
// filesystem: a failed append whose rollback truncate also fails
// poisons the log — that update answers 500, every subsequent update
// answers 501 read-only, reads keep answering, and /readyz + /metrics
// report the degradation.
func TestPoisonedWALDegradesOverHTTP(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.KB = kb.Build(kb.DefaultConfig()) // private KB: the store gets a WAL attached
	cfg.CacheSize = 64
	sys := core.New(cfg)

	fsys := faultfs.New()
	rec, err := wal.Recover("data", wal.Options{FS: fsys, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.Open(sys.KB.Store)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Sys: sys, Updater: m})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy first: an update commits and readiness reports writable.
	resp, body := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", swapHeight("1.98", "2.22"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy update status = %d (%s)", resp.StatusCode, body)
	}

	// Poison: the next append's write fails AND its rollback truncate
	// fails, so the log cannot restore its offset.
	fsys.FailWrite(wal.LogName, 1, 3)
	fsys.FailTruncate(wal.LogName, 1)
	resp, body = postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", swapHeight("2.22", "1.98"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoning update status = %d (%s), want 500", resp.StatusCode, body)
	}

	// Subsequent updates refuse read-only without touching the WAL.
	resp, body = postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", swapHeight("2.22", "1.98"))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("degraded update status = %d (%s), want 501", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "read-only") {
		t.Errorf("degraded update body = %s", body)
	}

	// Reads keep serving the in-memory store — with the committed value.
	if ar := askHeight(t, ts.Client(), ts.URL); !ar.Answered || ar.Answers[0] != "2.22" {
		t.Fatalf("degraded read = %+v", ar)
	}

	// Readiness and metrics surface the state.
	hresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Status   string `json:"status"`
		Writable bool   `json:"writable"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || rz.Status != "degraded" || rz.Writable {
		t.Fatalf("degraded readyz = %d %+v", hresp.StatusCode, rz)
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, w := range []string{
		"qaserve_degraded 1",
		`qaserve_updates_total{outcome="read_only"} 1`,
		`qaserve_updates_total{outcome="error"} 1`,
	} {
		if !strings.Contains(string(mbody), w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// TestStaticPathUntouchedByNewConfig guards the differential promise:
// a server built with the PR 7 configuration surface gets the fixed
// limit with its reserve (8 − 2, 8, 8 + 2), attaches no injector, and
// sets no new headers on the success path.
func TestStaticPathUntouchedByNewConfig(t *testing.T) {
	srv := New(Config{Sys: testSystem(t), MaxInFlight: 8})
	if srv.chaos != nil {
		t.Fatal("default config armed the injector")
	}
	if want := [numPriorities]int64{8, 10}; srv.threshold != want {
		t.Fatalf("thresholds = %v, want %v", srv.threshold, want)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("success response grew a Retry-After header")
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	// The wire shape must not grow fields: a raw decode of the JSON keys
	// guards against, e.g., a pipeline-internal field leaking into the
	// trace.
	// A miss's answer entry carries its plan-cache and rank-sort
	// counts; the shard fields stay out of a single-store reply.
	allowed := map[string]bool{"stage": true, "duration_ms": true, "candidates": true, "cache_hit": true,
		"plan_cache_hits": true, "plan_cache_misses": true, "rank_sorts": true, "error": true}
	checkTraceKeys(t, "miss", body, allowed)

	// Asked again, the question is a hit: one entry, three fields.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	checkTraceKeys(t, "hit", body, map[string]bool{"stage": true, "duration_ms": true, "cache_hit": true})
}

// checkTraceKeys fails t if any trace entry of the reply body has a
// key outside allowed.
func checkTraceKeys(t *testing.T, label string, body []byte, allowed map[string]bool) {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	var traces []map[string]json.RawMessage
	if err := json.Unmarshal(raw["trace"], &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatalf("%s: reply has no trace", label)
	}
	for _, tr := range traces {
		for k := range tr {
			if !allowed[k] {
				t.Errorf("%s: trace grew field %q", label, k)
			}
		}
	}
}
