package qaserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// TestMetricsDocumented: every metric family /metrics emits — from a
// server with every optional family switched on: shards, a chaos
// injector that has fired, the plan cache — is named in
// cmd/qaserve/README.md, every qaserve_* name the README gives is
// emitted by that server, and the runtime, cache-occupancy and boot
// families carry live values.
func TestMetricsDocumented(t *testing.T) {
	in := chaos.New(3, chaos.Rule{Point: "stage.answer", Kind: chaos.KindError, Prob: 1, Limit: 1})
	_, cluster, _ := shardedServer(t, fastShardConfig(), nil)
	cfg := core.DefaultConfig()
	cfg.CacheSize = 64
	h := New(Config{Sys: core.New(cfg), Cluster: cluster, Chaos: in, MaxInFlight: 4}).Handler()
	for i := 0; i < 2; i++ { // the injected 500, then an answer the cache keeps
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/answer",
			strings.NewReader(`{"question":"How tall is Michael Jordan?"}`)))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	text := w.Body.String()

	readme, err := os.ReadFile("../../cmd/qaserve/README.md")
	if err != nil {
		t.Fatal(err)
	}
	families := regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(text, -1)
	if len(families) < 25 {
		t.Fatalf("only %d metric families: an optional one is not switched on\n%s", len(families), text)
	}
	for _, f := range families {
		if !strings.Contains(string(readme), "`"+f[1]) {
			t.Errorf("metric family %s is not documented in cmd/qaserve/README.md", f[1])
		}
	}
	emitted := map[string]bool{} // families and sample names
	for _, m := range regexp.MustCompile(`(?m)^(?:# TYPE )?(qaserve_[a-z0-9_]+)`).FindAllStringSubmatch(text, -1) {
		emitted[m[1]] = true
	}
	for _, m := range regexp.MustCompile("`(qaserve_[a-z0-9_]*[a-z0-9])[`{ ]").FindAllStringSubmatch(string(readme), -1) {
		if !emitted[m[1]] {
			t.Errorf("cmd/qaserve/README.md names %s, which /metrics does not emit", m[1])
		}
	}
	if !strings.Contains(text, "\nqaserve_cache_entries 1\n") {
		t.Errorf("qaserve_cache_entries is not 1 after one cached answer")
	}
	if !regexp.MustCompile(`(?m)^qaserve_boot_seconds\{phase="pattern_mining"\} [0-9.e-]+$`).MatchString(text) {
		t.Errorf("qaserve_boot_seconds carries no pattern_mining phase")
	}
	for _, name := range []string{"qaserve_go_heap_live_bytes", "qaserve_go_heap_objects",
		"qaserve_go_gc_cycles_total", "qaserve_go_gc_cpu_seconds_total"} {
		if !regexp.MustCompile(`(?m)^` + name + ` [0-9.]+$`).MatchString(text) {
			t.Errorf("%s carries no plain decimal value", name)
		}
	}
}

// TestCacheCountersEqualCacheStats: the exported hit and miss counters
// count lookups — misses, hits, batch members, a request that times out
// after its lookup and one rejected at admission after it — as the
// answer cache's own statistics do: 3 hits and 4 misses here.
func TestCacheCountersEqualCacheStats(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CacheSize = 64
	sys := core.New(cfg)
	srv := New(Config{Sys: sys, MaxInFlight: 1, RequestTimeout: time.Second})
	h := srv.Handler()
	post := func(path, body string, header ...string) int {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		for i := 0; i+1 < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	for _, q := range []string{"How tall is Michael Jordan?", "How tall is Michael Jordan?", "gibberish blob"} {
		if code := post("/v1/answer", `{"question":"`+q+`"}`); code != 200 {
			t.Fatalf("%q: status %d", q, code)
		}
	}
	if code := post("/v1/answer/batch", `{"questions":["gibberish blob","Where did Abraham Lincoln die?"]}`); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	if code := post("/v1/answer", `{"question":"Who wrote Snow?"}`, BudgetHeader, "1ns"); code != 504 {
		t.Fatalf("timed-out miss: status %d, want 504", code)
	}
	srv.trySlot(prioNormal) // the one slot: the next request is rejected
	if code := post("/v1/answer", `{"question":"How tall is Michael Jordan?"}`); code != 503 {
		t.Fatalf("rejected hit: status %d, want 503", code)
	}
	srv.freeSlot()

	if h, m := srv.m.cacheHits.Load(), srv.m.cacheMisses.Load(); h != 3 || m != 4 {
		t.Errorf("exported %d hits / %d misses, want the 3 / 4 lookups", h, m)
	}
}

// TestStoreGaugesFollowUpdates: a /v1/update that inserts one triple
// about a new subject, with a new literal, moves
// qaserve_store_generation and qaserve_store_triples by one and
// qaserve_store_terms by two, and the gauges agree with /readyz.
func TestStoreGaugesFollowUpdates(t *testing.T) {
	sys := mutableSystem(t)
	srv := New(Config{Sys: sys, Updater: openManager(t, sys, -1), UpdateToken: "s3cret"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	gauges := func() (gen, triples, terms int) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		for name, dst := range map[string]*int{"generation": &gen, "triples": &triples, "terms": &terms} {
			m := regexp.MustCompile(`(?m)^qaserve_store_` + name + ` (\d+)$`).FindSubmatch(text)
			if m == nil {
				t.Fatalf("no qaserve_store_%s gauge in\n%s", name, text)
			}
			*dst, _ = strconv.Atoi(string(m[1]))
		}
		return gen, triples, terms
	}
	gen, triples, terms := gauges()
	if sn := sys.KB.Store.Snapshot(); uint64(gen) != sn.Gen() || triples != sn.Len() || terms != sn.TermCount() {
		t.Fatalf("gauges %d/%d/%d, store %d/%d/%d", gen, triples, terms, sn.Gen(), sn.Len(), sn.TermCount())
	}
	update := fmt.Sprintf(`INSERT DATA { <http://example.org/gauge/%d> <http://www.w3.org/2000/01/rdf-schema#label> "gauge %[1]d" }`, gen)
	if resp, body := postSPARQL(t, ts.Client(), ts.URL+"/v1/update", "s3cret", update); resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d (%s)", resp.StatusCode, body)
	}
	gen2, triples2, terms2 := gauges()
	if gen2 != gen+1 || triples2 != triples+1 || terms2 != terms+2 {
		t.Errorf("after one insert: generation %d → %d, triples %d → %d, terms %d → %d; want +1, +1, +2",
			gen, gen2, triples, triples2, terms, terms2)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct{ Generation, Triples int }
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil || ready.Generation != gen2 || ready.Triples != triples2 {
		t.Errorf("/readyz %+v (%v), gauges generation %d, triples %d", ready, err, gen2, triples2)
	}
}

// TestPlanCachePerServer: the plan-shape counters on /metrics are the
// server's own System's. Of two servers over two Systems, answering on
// A moves A's misses and leaves B's at 0.
func TestPlanCachePerServer(t *testing.T) {
	a, b := New(Config{Sys: testSystem(t)}).Handler(), New(Config{Sys: testSystem(t)}).Handler()
	a.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/answer",
		strings.NewReader(`{"question":"Which book is written by Orhan Pamuk?"}`)))
	misses := func(h http.Handler) int {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		m := regexp.MustCompile(`(?m)^qaserve_plancache_misses_total (\d+)$`).FindStringSubmatch(w.Body.String())
		if m == nil {
			t.Fatalf("no qaserve_plancache_misses_total in\n%s", w.Body)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if n := misses(a); n == 0 {
		t.Error("A answered a question and counts no plan-cache miss")
	}
	if n := misses(b); n != 0 {
		t.Errorf("B answered nothing and counts %d plan-cache misses", n)
	}
}
