package qaserve

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

// TestMetricsDocumented: every metric family /metrics emits — from a
// server with every optional family switched on: shards, the adaptive
// limiter, a chaos injector that has fired, the plan cache — is named
// in cmd/qaserve/README.md, and the runtime, cache-occupancy and boot
// families carry live values.
func TestMetricsDocumented(t *testing.T) {
	in := chaos.New(3, chaos.Rule{Point: "stage.answer", Kind: chaos.KindError, Prob: 1, Limit: 1})
	_, cluster, _ := shardedServer(t, fastShardConfig(), nil)
	cfg := core.DefaultConfig()
	cfg.CacheSize = 64
	h := New(Config{Sys: core.New(cfg), Cluster: cluster, Chaos: in, AdaptiveAdmission: true, MaxInFlight: 4}).Handler()
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
