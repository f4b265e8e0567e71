package qaserve

// TestChaosSoak is the PR 8 resilience acceptance test: a seeded,
// deterministic soak that replays a mixed answer/update workload
// against a live server with chaos armed at the pipeline stage
// boundaries and the WAL manager's fault points, on the fault-injecting
// in-memory filesystem. It asserts the harness's four invariants:
//
//  1. cached reads stay available throughout overload (the admission
//     reserve never sheds Cached priority);
//  2. every acknowledged update commit is durable across an injected
//     crash, and every errored one left no partial state;
//  3. the server returns to fully healthy once the fault rules run
//     dry — no lingering degradation, readiness stays writable;
//  4. nothing leaks: goroutine count returns to baseline after
//     shutdown, despite injected panics and errors mid-request.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// soakQuestions is the QALD-flavoured read mix (cf. cmd/qa's demo set).
var soakQuestions = []string{
	"Which book is written by Orhan Pamuk?",
	"Where did Abraham Lincoln die?",
	"Is Frank Herbert still alive?",
	"When did Frank Herbert die?",
	"Which country is Berlin located in?",
}

func TestChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.KB = kb.Build(kb.DefaultConfig()) // private KB: the store is mutated
	cfg.CacheSize = 256
	sys := core.New(cfg)

	// The fault schedule: finite Limits so the faults provably stop,
	// probabilities so they interleave with the workload. One seed, one
	// replay — rerunning this test injects at exactly the same calls.
	injector := chaos.New(42,
		chaos.Rule{Point: "stage.answer", Kind: chaos.KindError, Prob: 0.35, Limit: 4},
		chaos.Rule{Point: "stage.triplex", Kind: chaos.KindPanic, Prob: 0.25, Limit: 3},
		chaos.Rule{Point: "stage.propmap", Kind: chaos.KindLatency, Prob: 0.3, Latency: 2 * time.Millisecond, Limit: 4},
		chaos.Rule{Point: "wal.apply", Kind: chaos.KindError, Prob: 0.5, Limit: 3},
		chaos.Rule{Point: "wal.append", Kind: chaos.KindError, Prob: 0.5, Limit: 3},
	)
	const totalInjections = 4 + 3 + 4 + 3 + 3

	fsys := faultfs.New()
	rec, err := wal.Recover("data", wal.Options{FS: fsys, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.Open(sys.KB.Store)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Sys: sys, Updater: m, Chaos: injector,
		MaxInFlight:    4,
		RequestTimeout: 10 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	post := func(q string) (*http.Response, []byte) {
		t.Helper()
		return postJSON(t, client, ts.URL+"/v1/answer", AnswerRequest{Question: q})
	}

	// --- Phase 1: overload. Warm one question into the cache (retrying
	// past any injected fault — the cache only keeps successes), then
	// hold every Normal slot and assert the priority order: normal
	// sheds, the cached question rides the reserve.
	const warmQ = "Where did Abraham Lincoln die?"
	warmed := false
	for try := 0; try < 10 && !warmed; try++ {
		resp, _ := post(warmQ)
		warmed = resp.StatusCode == http.StatusOK
	}
	if !warmed {
		t.Fatal("warmup never succeeded in 10 tries")
	}
	for i := 0; i < 4; i++ {
		if !srv.trySlot(prioNormal) {
			t.Fatalf("fill %d rejected", i)
		}
	}
	for round := 0; round < 5; round++ {
		resp, _ := post(fmt.Sprintf("Which lake is the largest? (soak %d)", round))
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("overload round %d: normal status %d, want 503", round, resp.StatusCode)
		}
		// The invariant: the cached read answers every single round.
		resp, body := post(warmQ)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("overload round %d: cached read lost: %d (%s)", round, resp.StatusCode, body)
		}
		var ar AnswerResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if !ar.CacheHit {
			t.Fatalf("overload round %d: reserve admission missed the cache: %+v", round, ar)
		}
	}
	for i := 0; i < 4; i++ {
		srv.freeSlot()
	}

	// --- Phase 2: mixed workload under chaos. Sequential on purpose:
	// with one request in flight at a time the injector's hit sequence
	// is a pure function of the seed. Updates track the acknowledged
	// height — a 200 advances it, an injected 500 must leave it alone
	// (wal.apply and wal.append both fire before any byte or mutation).
	height := "1.98"
	acked, failed := 0, 0
	answer := func(i int, q string) {
		resp, body := post(q)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("soak answer %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	for i := 0; i < 90; i++ {
		switch i % 5 {
		case 4: // update
			next := fmt.Sprintf("%.2f", 2.00+float64(i)/100)
			resp, body := postSPARQL(t, client, ts.URL+"/v1/update", "", swapHeight(height, next))
			switch resp.StatusCode {
			case http.StatusOK:
				height = next
				acked++
			case http.StatusInternalServerError:
				failed++ // injected: the store and the log are untouched
			default:
				t.Fatalf("soak update %d: status %d (%s)", i, resp.StatusCode, body)
			}
		case 3: // the first two questions, one after the other
			for _, q := range soakQuestions[:2] {
				answer(i, q)
			}
		default: // single answers, cached and not
			answer(i, soakQuestions[i%len(soakQuestions)])
		}
	}
	if acked == 0 || failed == 0 {
		t.Fatalf("workload not mixed enough: %d acked, %d failed updates (reseed)", acked, failed)
	}

	// Every rule must have run dry, or phase 3 would be testing luck.
	injected := uint64(0)
	for _, in := range injector.Snapshot() {
		injected += in.Count
	}
	if injected != totalInjections {
		t.Fatalf("chaos not exhausted after the soak: %d of %d injections (reseed or lengthen)",
			injected, totalInjections)
	}

	// --- Phase 3: faults have stopped; the server must be fully
	// healthy again. Every read answers, an update commits, readiness
	// reports writable (wal.append faults fire before any byte, so the
	// log never poisons), and the acknowledged height survives a crash.
	for i := 0; i < 10; i++ {
		resp, body := post(soakQuestions[i%len(soakQuestions)])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-chaos answer %d: status %d (%s), want 200", i, resp.StatusCode, body)
		}
	}
	next := "2.99"
	if resp, body := postSPARQL(t, client, ts.URL+"/v1/update", "", swapHeight(height, next)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos update: status %d (%s), want 200", resp.StatusCode, body)
	}
	height = next
	if ar := askHeight(t, client, ts.URL); !ar.Answered || ar.Answers[0] != height {
		t.Fatalf("post-chaos read = %+v, want %s", ar, height)
	}
	rresp, err := client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Status   string `json:"status"`
		Writable bool   `json:"writable"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || rz.Status != "ready" || !rz.Writable {
		t.Fatalf("post-chaos readyz = %d %+v, want ready+writable", rresp.StatusCode, rz)
	}

	// Crash durability: take the durable image (synced bytes plus a
	// random torn tail), recover on it cold, and the height is exactly
	// the last acknowledged value — nothing acked lost, nothing
	// unacked resurrected.
	crash := fsys.Crash(rand.New(rand.NewSource(1)))
	rec2, err := wal.Recover("data", wal.Options{FS: crash})
	if err != nil {
		t.Fatalf("recovering the crash image: %v", err)
	}
	if rec2.Store == nil {
		t.Fatal("crash image holds no durable state")
	}
	var recovered []string
	for _, o := range rec2.Store.Snapshot().Objects(rdf.Res("Michael_Jordan"), rdf.Ont("height")) {
		recovered = append(recovered, o.Value)
	}
	if len(recovered) != 1 || recovered[0] != height {
		t.Fatalf("recovered heights = %v, want exactly [%s]", recovered, height)
	}
	// The shed ledger: overload shed normal work, never a cached read; the injections are all on the books.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, w := range []string{
		`qaserve_admission_shed_total{priority="cached"} 0`,
		`qaserve_admission_shed_total{priority="normal"} 5`,
		`qaserve_requests_total{outcome="rejected"} 5`,
		`qaserve_chaos_injections_total{point="wal.append",kind="error"} 3`,
		"qaserve_degraded 0",
	} {
		if !strings.Contains(string(mbody), w) {
			t.Errorf("metrics missing %q", w)
		}
	}

	// --- Shutdown: everything injected along the way (panics included)
	// must have released its goroutines and in-flight slots.
	if got := srv.m.inflight.Load(); got != 0 {
		t.Fatalf("in-flight = %d after the soak, want 0", got)
	}
	ts.Close()
	if err := m.Close(); err != nil {
		t.Fatalf("closing the WAL after the soak: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d at start, %d after shutdown\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
