package qaserve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
)

// TestHandlerAllocations is the serving path's deterministic gate: the
// allocations of one POST /v1/answer through Server.Handler(), request
// and recorder included, for a question the answer cache holds and for
// one it does not (the whole pipeline plus the cache fill), under
// cmd/qaserve's default -timeout. Timings on a shared host cannot hold a
// line in CI; an allocation count can. The ceilings are 10% above what
// the code measures (23 and 70 since §2.1 keeps one token record per
// word and §2.2 points at the rows it reads; 23 and 88 since §2.3
// prints only the candidates it runs; 23 and 89 before) — raise one
// only with the reason in the commit.
func TestHandlerAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	cfg := core.DefaultConfig()
	cfg.CacheSize = 1024
	// cmd/qaserve's default -timeout: a miss pays for its timer here as
	// in production.
	h := New(Config{Sys: core.New(cfg), RequestTimeout: 5 * time.Second}).Handler()
	post := func(question string) {
		req := httptest.NewRequest("POST", "/v1/answer", strings.NewReader(`{"question":"`+question+`"}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", question, w.Code, w.Body)
		}
	}

	const cached, uncached = 25, 77
	post("How tall is Michael Jordan?")
	n := testing.AllocsPerRun(200, func() { post("How tall is Michael Jordan?") })
	t.Logf("cached request: %v allocs, ceiling %d", n, cached)
	if n > cached {
		t.Errorf("cached request: %v allocs, ceiling %d", n, cached)
	}
	// A fresh suffix per run misses the cache; the question answers as
	// the bare one does. Four digits throughout keep the text one length.
	i := 1000
	n = testing.AllocsPerRun(200, func() {
		i++
		post(fmt.Sprintf("How tall is Michael Jordan? (%d)", i))
	})
	t.Logf("uncached request: %v allocs, ceiling %d", n, uncached)
	if n > uncached {
		t.Errorf("uncached request: %v allocs, ceiling %d", n, uncached)
	}
}
