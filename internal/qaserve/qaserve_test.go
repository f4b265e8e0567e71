package qaserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
)

// testSystem returns a cached-pipeline System with an answer cache of
// its own, so no test (and no rerun under -count) sees another's
// entries. Every one shares the built-in KB.
func testSystem(t testing.TB) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.KB = kb.Default()
	cfg.CacheSize = 256
	return core.New(cfg)
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestAnswerEndpoint(t *testing.T) {
	srv := New(Config{Sys: testSystem(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "Which book is written by Orhan Pamuk?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad JSON: %v (%s)", err, body)
	}
	if !ar.Answered || ar.Status != "answered" || len(ar.Answers) != 5 {
		t.Fatalf("response = %+v", ar)
	}
	if ar.WinningSPARQL == "" {
		t.Error("winning SPARQL missing")
	}
	if len(ar.Trace) == 0 {
		t.Fatal("trace missing")
	}
	var stages []string
	for _, st := range ar.Trace {
		stages = append(stages, st.Stage)
	}
	if want := "cache triplex propmap answer"; strings.Join(stages, " ") != want {
		t.Errorf("trace stages = %v, want %q", stages, want)
	}

	// Unanswerable questions still 200 with their terminal status.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "Is Frank Herbert still alive?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Answered || ar.Error == "" {
		t.Fatalf("unanswerable response = %+v", ar)
	}

	// Malformed bodies 400.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/answer", map[string]any{"q": 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d", resp.StatusCode)
	}

	// So are bytes after the object, /v1/answer/batch alike.
	for path, body := range map[string]string{
		"/v1/answer":       `{"question":"How tall is Michael Jordan?"} trailing`,
		"/v1/answer/batch": `{"questions":["How tall is Michael Jordan?"]}{}`,
	} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with trailing bytes: status = %d, want 400", path, resp.StatusCode)
		}
	}

	// Oversized bodies are cut off at the limit before the pipeline (or
	// the in-flight limiter) sees them.
	huge, err := ts.Client().Post(ts.URL+"/v1/answer", "application/json",
		bytes.NewReader(append([]byte(`{"question":"`), make([]byte, 2<<20)...)))
	if err != nil {
		t.Fatal(err)
	}
	huge.Body.Close()
	if huge.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status = %d, want 400", huge.StatusCode)
	}
}

func TestAnswerCacheHitOverHTTP(t *testing.T) {
	srv := New(Config{Sys: testSystem(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := AnswerRequest{Question: "Who is the mayor of Berlin?"}
	_, _ = postJSON(t, ts.Client(), ts.URL+"/v1/answer", q)
	_, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer", q)
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.CacheHit {
		t.Fatalf("second request not served from cache: %+v", ar)
	}
	if !ar.Answered || len(ar.Answers) != 1 {
		t.Fatalf("cached response = %+v", ar)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := New(Config{Sys: testSystem(t), MaxBatch: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer/batch", BatchRequest{
		Questions: []string{
			"How tall is Michael Jordan?",
			"Where did Abraham Lincoln die?",
			"gibberish blob",
		}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d", len(br.Results))
	}
	if !br.Results[0].Answered || br.Results[0].Answers[0] != "1.98" {
		t.Errorf("result 0 = %+v", br.Results[0])
	}
	if !br.Results[1].Answered {
		t.Errorf("result 1 = %+v", br.Results[1])
	}
	if br.Results[2].Answered {
		t.Errorf("result 2 = %+v", br.Results[2])
	}

	// Oversized batches 400.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/answer/batch", BatchRequest{
		Questions: make([]string, 5)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{Sys: testSystem(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A question no other test asks: the shared System's answer cache
	// must miss so every stage runs and lands in the histograms.
	_, _ = postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "When did Frank Herbert die?"})

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status     string `json:"status"`
		Triples    int    `json:"triples"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Triples == 0 {
		t.Fatalf("healthz = %+v", hz)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, w := range []string{
		`qaserve_requests_total{outcome="ok"} `,
		`qaserve_stage_duration_seconds_bucket{stage="answer",le="+Inf"}`,
		`qaserve_stage_duration_seconds_bucket{stage="triplex",le="+Inf"}`,
		`qaserve_request_duration_seconds_count`,
		"qaserve_inflight_requests 0",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("metrics missing %q:\n%s", w, text)
		}
	}
}

// TestConcurrentAnswerRequests is the acceptance check: >= 32 in-flight
// /v1/answer requests under -race, all served correctly.
func TestConcurrentAnswerRequests(t *testing.T) {
	srv := New(Config{Sys: testSystem(t), MaxInFlight: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 64

	questions := []struct {
		q        string
		answered bool
		answer   string
	}{
		{"Which book is written by Orhan Pamuk?", true, "Snow"},
		{"How tall is Michael Jordan?", true, "1.98"},
		{"Where did Abraham Lincoln die?", true, "Washington, D.C."},
		{"Who is the mayor of Berlin?", true, "Klaus Wowereit"},
		{"Is Frank Herbert still alive?", false, ""},
	}

	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers*8)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				c := questions[(w+i)%len(questions)]
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer", AnswerRequest{Question: c.q})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%q: status %d (%s)", c.q, resp.StatusCode, body)
					return
				}
				var ar AnswerResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					errs <- err
					return
				}
				if ar.Answered != c.answered {
					errs <- fmt.Errorf("%q: answered = %v, want %v", c.q, ar.Answered, c.answered)
					return
				}
				if c.answered {
					found := false
					for _, a := range ar.Answers {
						if a == c.answer {
							found = true
						}
					}
					if !found {
						errs <- fmt.Errorf("%q: answers %v missing %q", c.q, ar.Answers, c.answer)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInFlightLimitSheds: requests past MaxInFlight answer 503 while a
// slow request holds the only slot.
func TestInFlightLimitSheds(t *testing.T) {
	srv := New(Config{Sys: testSystem(t), MaxInFlight: 1})
	// Hold the single slot directly (the pipeline is too fast to hold
	// it open reliably over HTTP).
	srv.trySlot(prioNormal)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("Retry-After missing")
	}
	srv.freeSlot()
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after slot freed = %d", resp.StatusCode)
	}
}

// TestRequestTimeoutAnswers504: a tiny per-request timeout turns into a
// 504 with status "canceled", and the server keeps serving afterwards.
// TestRequestTimeoutAnswers504: a pipeline run that outlives the
// request timeout answers 504. The system has no answer cache of its
// own, so the question runs the pipeline whatever other tests asked.
func TestRequestTimeoutAnswers504(t *testing.T) {
	srv := New(Config{Sys: core.New(core.DefaultConfig()), RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "Which book is written by Orhan Pamuk?"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Status != "canceled" || ar.Error == "" {
		t.Fatalf("timeout response = %+v", ar)
	}
}

// TestCacheHitIgnoresRequestTimeout: the timeout bounds the pipeline
// run, and a cache hit runs none — with a 1 ns timeout a cached question
// still answers 200 from the cache.
func TestCacheHitIgnoresRequestTimeout(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CacheSize = 16
	sys := core.New(cfg)
	const q = "Which book is written by Orhan Pamuk?"
	if res := sys.AnswerCtx(context.Background(), q); !res.Answered() {
		t.Fatalf("warm-up: %v / %v", res.Status, res.Err)
	}
	ts := httptest.NewServer(New(Config{Sys: sys, RequestTimeout: time.Nanosecond}).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer", AnswerRequest{Question: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.CacheHit || !ar.Answered {
		t.Fatalf("response = %+v, want an answered cache hit", ar)
	}
	// A question the cache does not hold still times out.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/answer", AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("uncached: status = %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrainsInFlight: Shutdown on a real http.Server
// waits for an in-flight answer request and the client still gets its
// 200.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	sys := testSystem(t)
	srv := New(Config{Sys: sys})

	// Gate the handler so the request is provably in flight when
	// Shutdown begins.
	entered := make(chan struct{})
	proceed := make(chan struct{})
	gated := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/answer" {
			close(entered)
			<-proceed
		}
		srv.Handler().ServeHTTP(w, r)
	})
	hs := httptest.NewServer(gated)
	defer hs.Close()

	type result struct {
		code int
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(AnswerRequest{Question: "How tall is Michael Jordan?"})
		resp, err := hs.Client().Post(hs.URL+"/v1/answer", "application/json", bytes.NewReader(b))
		if err != nil {
			done <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{code: resp.StatusCode, body: body}
	}()

	<-entered
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Config.Shutdown(ctx)
	}()
	// Shutdown must block on the in-flight request: it cannot have
	// completed yet.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(proceed)

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request status = %d (%s)", r.code, r.body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(r.body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Answered {
		t.Fatalf("drained request unanswered: %+v", ar)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// batchServer builds a Server whose batch requests fan out across at
// most workers workers (1 = every question on the handler's goroutine).
func batchServer(t *testing.T, cfg Config, workers int) *Server {
	t.Helper()
	cfg.Sys = testSystem(t)
	srv := New(cfg)
	srv.batchWorkers = workers
	return srv
}

// TestBatchParallelMatchesSequential: fanning a batch across several
// workers must return the same answers in the same (request) order as
// one worker on the handler's goroutine, at every worker count. Run
// under -race this also exercises concurrent AnswerCtx calls sharing
// one System from inside a single HTTP request.
func TestBatchParallelMatchesSequential(t *testing.T) {
	questions := []string{
		"Which book is written by Orhan Pamuk?",
		"How tall is Michael Jordan?",
		"Where did Abraham Lincoln die?",
		"gibberish blob",
		"How many people live in Istanbul?",
		"Who is the mayor of Berlin?",
	}
	run := func(parallelism int) BatchResponse {
		srv := batchServer(t, Config{}, parallelism)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer/batch",
			BatchRequest{Questions: questions})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallelism=%d: status %d, body %s", parallelism, resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		return br
	}
	key := func(br BatchResponse) string {
		var sb strings.Builder
		for _, r := range br.Results {
			fmt.Fprintf(&sb, "%s=%s:%v;", r.Question, r.Status, r.Answers)
		}
		return sb.String()
	}
	want := key(run(1))
	if !strings.Contains(want, "Orhan") {
		t.Fatalf("sequential reference looks wrong: %s", want)
	}
	for _, p := range []int{2, 4, 8} {
		if got := key(run(p)); got != want {
			t.Fatalf("parallelism=%d diverged:\nseq: %s\npar: %s", p, want, got)
		}
	}
}

// TestBatchParallelClientGone: a client disconnect mid-batch stops the
// fan-out without writing a response and leaves the server reusable.
func TestBatchParallelClientGone(t *testing.T) {
	srv := batchServer(t, Config{}, 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	questions := make([]string, 16)
	for i := range questions {
		// Unique texts defeat the answer cache so the batch does real work.
		questions[i] = fmt.Sprintf("Where did Abraham Lincoln die? (%d)", i)
	}
	b, _ := json.Marshal(BatchRequest{Questions: questions})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/answer/batch", bytes.NewReader(b))
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if resp, err := ts.Client().Do(req); err == nil {
		resp.Body.Close() // the batch may have finished before the cancel landed
	}

	// The server keeps serving normally afterwards.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request: status %d body %s", resp.StatusCode, body)
	}
}

// TestBatchParallelChargesInFlightSlots: extra batch workers charge
// MaxInFlight slots non-blockingly — a tight admission limit shrinks
// the batch to one worker (never deadlocks, never rejects the
// already-admitted batch) and the slots are released afterwards.
func TestBatchParallelChargesInFlightSlots(t *testing.T) {
	srv := batchServer(t, Config{MaxInFlight: 1}, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	questions := []string{
		"Which book is written by Orhan Pamuk?",
		"How tall is Michael Jordan?",
		"Where did Abraham Lincoln die?",
	}
	// The batch's own slot is the only one; all extra worker slots are
	// unavailable, so this must run sequentially and still answer.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/answer/batch",
		BatchRequest{Questions: questions})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 || !br.Results[0].Answered {
		t.Fatalf("results = %+v", br.Results)
	}
	// All slots released: a follow-up single request is admitted.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-batch request: status %d body %s", resp.StatusCode, body)
	}
}
