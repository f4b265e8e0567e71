package qaserve

import (
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
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

var (
	mutSysOnce sync.Once
	mutSys     *core.System
)

// mutableSystem shares one System over a private KB across the update
// tests — testSystem's KB must stay pristine for the read-only tests,
// so the mutation tests get their own.
func mutableSystem(t testing.TB) *core.System {
	t.Helper()
	mutSysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.KB = kb.Build(kb.DefaultConfig())
		cfg.CacheSize = 256
		mutSys = core.New(cfg)
	})
	return mutSys
}

// openManager attaches a WAL manager to the system's store in a fresh
// temp data dir.
func openManager(t *testing.T, sys *core.System, compact int64) *wal.Manager {
	t.Helper()
	rec, err := wal.Recover(t.TempDir(), wal.Options{CompactBytes: compact})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.Open(sys.KB.Store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func postSPARQL(t testing.TB, client *http.Client, url, token, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
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

// swapHeight is the SPARQL UPDATE that atomically replaces Michael
// Jordan's height — one request, two operations, one batch.
func swapHeight(from, to string) string {
	return fmt.Sprintf(`PREFIX res: <http://dbpedia.org/resource/>
PREFIX dbont: <http://dbpedia.org/ontology/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
DELETE DATA { res:Michael_Jordan dbont:height "%s"^^xsd:double } ;
INSERT DATA { res:Michael_Jordan dbont:height "%s"^^xsd:double }`, from, to)
}

func askHeight(t testing.TB, client *http.Client, url string) AnswerResponse {
	t.Helper()
	resp, body := postJSON(t, client, url+"/v1/answer",
		AnswerRequest{Question: "How tall is Michael Jordan?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status = %d (%s)", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

func TestUpdateEndpoint(t *testing.T) {
	sys := mutableSystem(t)
	m := openManager(t, sys, -1)
	srv := New(Config{Sys: sys, Updater: m, UpdateToken: "s3cret"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if ar := askHeight(t, ts.Client(), ts.URL); !ar.Answered || ar.Answers[0] != "1.98" {
		t.Fatalf("pre-update answer = %+v", ar)
	}

	// No token and a wrong token are both 401 without touching the store.
	resp, _ := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", swapHeight("1.98", "2.22"))
	if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("no-token status = %d", resp.StatusCode)
	}
	resp, _ = postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "wrong", swapHeight("1.98", "2.22"))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token status = %d", resp.StatusCode)
	}

	// Unparseable updates are 400 with the parse position.
	resp, body := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "s3cret", "INSERT DATA { broken")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse-error status = %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "line") {
		t.Errorf("parse error lacks a position: %s", body)
	}

	// The authorized update commits both operations as one batch.
	resp, body = postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "s3cret", swapHeight("1.98", "2.22"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d (%s)", resp.StatusCode, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Ops != 2 || ur.Added != 1 || ur.Removed != 1 || ur.Generation == 0 {
		t.Fatalf("update response = %+v", ur)
	}

	// The new fact answers immediately — including through the answer
	// cache, whose generation-stamped entry for this question is now
	// stale and must not be served.
	if ar := askHeight(t, ts.Client(), ts.URL); !ar.Answered || len(ar.Answers) != 1 || ar.Answers[0] != "2.22" {
		t.Fatalf("post-update answer = %+v", ar)
	}

	// /healthz and /readyz report the committed generation.
	hresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Writable   bool   `json:"writable"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if rz.Status != "ready" || !rz.Writable || rz.Generation != ur.Generation {
		t.Fatalf("readyz = %+v, want generation %d", rz, ur.Generation)
	}

	// Metrics count the outcomes.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, w := range []string{
		`qaserve_updates_total{outcome="ok"} 1`,
		`qaserve_updates_total{outcome="denied"} 2`,
		`qaserve_updates_total{outcome="bad_request"} 1`,
	} {
		if !strings.Contains(string(mbody), w) {
			t.Errorf("metrics missing %q", w)
		}
	}

	// Restore for the other tests sharing this system.
	resp, body = postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "s3cret", swapHeight("2.22", "1.98"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status = %d (%s)", resp.StatusCode, body)
	}
}

// blockingUpdater commits nothing: ApplyUpdate waits until its context
// ends.
type blockingUpdater struct{}

func (blockingUpdater) ApplyUpdate(ctx context.Context, _ []store.BatchOp) (uint64, int, int, error) {
	<-ctx.Done()
	return 0, 0, 0, ctx.Err()
}

// TestUpdateTimeoutAnswers504: a /v1/update commit runs under the same
// RequestTimeout as an answer-cache miss, so a commit that outlives it
// answers 504 and counts as a timeout.
func TestUpdateTimeoutAnswers504(t *testing.T) {
	srv := New(Config{Sys: core.Default(), Updater: blockingUpdater{}, RequestTimeout: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Timeout = 10 * time.Second // an update with no deadline fails here instead of hanging

	resp, body := postSPARQL(t, client, ts.URL+"/v1/update", "", swapHeight("1.98", "2.22"))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), context.DeadlineExceeded.Error()) {
		t.Errorf("body = %s, want the deadline error", body)
	}
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), `qaserve_requests_total{outcome="timeout"} 1`+"\n") {
		t.Errorf("metrics do not count one timeout:\n%s", metrics)
	}
}

func TestUpdateReadOnlyServer(t *testing.T) {
	srv := New(Config{Sys: testSystem(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", swapHeight("1.98", "2.22"))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("read-only update status = %d, want 501", resp.StatusCode)
	}
}

// TestUpdateFullIRIsSurviveRestart: an update that spells out full
// IRIs with a '#' in them (rdf:type, and a typed literal's datatype)
// and holds a long string answers 200, moves the generation, and is in
// what a restart recovers from the data dir.
func TestUpdateFullIRIsSurviveRestart(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.KB = kb.Build(kb.DefaultConfig())
	sys := core.New(cfg)
	dir := t.TempDir()
	rec, err := wal.Recover(dir, wal.Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.Open(sys.KB.Store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Sys: sys, Updater: m, UpdateToken: "t"}).Handler())
	defer ts.Close()

	before := sys.KB.Store.Snapshot().Gen()
	resp, body := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "t", `INSERT DATA {
  <http://example.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/C> .
  <http://example.org/a> <http://example.org/count> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .
  <http://example.org/a> <http://example.org/note> """two
lines""" .
}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d (%s)", resp.StatusCode, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Added != 3 || ur.Generation <= before {
		t.Fatalf("update response = %+v, want 3 added above generation %d", ur, before)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := wal.Recover(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Store == nil || again.Gen != ur.Generation {
		t.Fatalf("recovered generation %d, want %d", again.Gen, ur.Generation)
	}
	a := rdf.NewIRI("http://example.org/a")
	for _, tr := range []rdf.Triple{
		{S: a, P: rdf.Type(), O: rdf.NewIRI("http://example.org/C")},
		{S: a, P: rdf.NewIRI("http://example.org/count"), O: rdf.NewTypedLiteral("7", rdf.XSDInteger)},
		{S: a, P: rdf.NewIRI("http://example.org/note"), O: rdf.NewLiteral("two\nlines")},
	} {
		if len(again.Store.Snapshot().Match(tr)) == 0 {
			t.Errorf("the recovered store lacks %v", tr)
		}
	}
}

func TestGateBootReadiness(t *testing.T) {
	g := NewGate()
	ts := httptest.NewServer(g)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// While booting: alive, not ready, no traffic served.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "starting") {
		t.Fatalf("boot /healthz = %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("boot /readyz = %d, want 503", code)
	}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/answer", AnswerRequest{Question: "x"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("boot /v1/answer = %d, want 503 with Retry-After", resp.StatusCode)
	}

	// Handover: everything delegates to the real server.
	g.SetReady(New(Config{Sys: testSystem(t)}).Handler())
	if g.next.Load() == nil {
		t.Fatal("gate not ready after SetReady")
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("ready /readyz = %d %s", code, body)
	}
	if ar := askHeight(t, ts.Client(), ts.URL); !ar.Answered {
		t.Fatalf("post-ready answer = %+v", ar)
	}
}

// TestUpdateAnswerChurn is the live-mutation acceptance test: one
// writer swaps Michael Jordan's height over /v1/update (each request a
// delete+insert pair committed as one batch, through the real WAL with
// auto-compaction) while 32 concurrent readers ask for it over
// /v1/answer. Whole-batch visibility means every reader sees exactly
// one of the two heights — never zero (a half-applied batch) and never
// both. Run under -race this also exercises the cache, pipeline and
// WAL manager against concurrent HTTP traffic.
func TestUpdateAnswerChurn(t *testing.T) {
	sys := mutableSystem(t)
	m := openManager(t, sys, 64<<10) // small threshold: compact during the churn
	srv := New(Config{Sys: sys, Updater: m, UpdateToken: "churn"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 64

	const (
		readers = 32
		reads   = 12
		writes  = 40
		low     = "1.98"
		high    = "2.22"
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*reads+writes)
	start := make(chan struct{})

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < reads; i++ {
				ar := askHeight(t, ts.Client(), ts.URL)
				if !ar.Answered || len(ar.Answers) != 1 {
					errs <- fmt.Errorf("read %d: partial batch visible: %+v", i, ar)
					return
				}
				if a := ar.Answers[0]; a != low && a != high {
					errs <- fmt.Errorf("read %d: unexpected height %q", i, a)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		cur, next := low, high
		var lastGen uint64
		for i := 0; i < writes; i++ {
			resp, body := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "churn", swapHeight(cur, next))
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("write %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			var ur UpdateResponse
			if err := json.Unmarshal(body, &ur); err != nil {
				errs <- err
				return
			}
			if ur.Added != 1 || ur.Removed != 1 {
				errs <- fmt.Errorf("write %d: batch drifted: %+v", i, ur)
				return
			}
			if ur.Generation <= lastGen {
				errs <- fmt.Errorf("write %d: generation went %d -> %d", i, lastGen, ur.Generation)
				return
			}
			lastGen = ur.Generation
			cur, next = next, cur
		}
	}()

	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// writes is even, so the height is back at low for later tests.
	if ar := askHeight(t, ts.Client(), ts.URL); !ar.Answered || ar.Answers[0] != low {
		t.Fatalf("post-churn answer = %+v", ar)
	}
}

// TestUpdateBodyOverLimit: a body one byte over maxUpdateBytes answers
// 400 with the same text as an unreadable one, and changes nothing.
func TestUpdateBodyOverLimit(t *testing.T) {
	sys := mutableSystem(t)
	m := openManager(t, sys, -1)
	srv := New(Config{Sys: sys, Updater: m})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gen := sys.KB.Store.Snapshot().Gen()
	body := swapHeight("1.98", "2.22")
	body += strings.Repeat(" ", maxUpdateBytes+1-len(body))
	resp, data := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", body)
	const want = `{"error":"update body unreadable or over the size limit"}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || string(data) != want {
		t.Fatalf("over-limit update = %d %q, want 400 %q", resp.StatusCode, data, want)
	}
	if got := sys.KB.Store.Snapshot().Gen(); got != gen {
		t.Fatalf("over-limit update moved the generation %d → %d", gen, got)
	}

	// One byte less is within the limit and applies.
	resp, data = postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", body[:maxUpdateBytes])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update at the limit = %d (%s)", resp.StatusCode, data)
	}
	resp, data = postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "", swapHeight("2.22", "1.98"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status = %d (%s)", resp.StatusCode, data)
	}
}
