package qaserve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// admissionCases are the slots each priority takes from an empty
// server at L = MaxInFlight: L and L + L/4, a plain cap below L = 4, no
// bound at L = 0.
var admissionCases = []struct {
	limit          int
	normal, cached int
}{
	{0, unboundedTakes, unboundedTakes},
	{1, 1, 1},
	{3, 3, 3},
	{4, 4, 5},
	{64, 64, 80},
}

const unboundedTakes = 1000 // every one of this many takes succeeds

// fillAndAsk takes priority p's slots on an empty srv until one is
// refused, asks acquire for one more, and frees every slot it holds.
// It returns the slots taken and acquire's recorded reply.
func fillAndAsk(t *testing.T, srv *Server, limit int, p priority) (int, *httptest.ResponseRecorder) {
	t.Helper()
	taken := 0
	for taken < unboundedTakes && srv.trySlot(p) {
		taken++
	}
	w := httptest.NewRecorder()
	if srv.acquire(w, p) {
		taken++
	}
	for range taken {
		srv.freeSlot()
	}
	if n := srv.m.inflight.Load(); n != 0 {
		t.Fatalf("L=%d/%s: %d slots left after freeing all", limit, priorityNames[p], n)
	}
	return taken, w
}

// TestPrioritySheddingOrder: from an empty server, each priority takes
// slots up to its threshold and acquire admits none past it, so a cache
// hit sheds last.
func TestPrioritySheddingOrder(t *testing.T) {
	for _, tc := range admissionCases {
		srv := New(Config{MaxInFlight: tc.limit})
		for p, want := range [numPriorities]int{tc.normal, tc.cached} {
			if tc.limit == 0 {
				want++ // acquire's extra ask is admitted too
			}
			if taken, _ := fillAndAsk(t, srv, tc.limit, priority(p)); taken != want {
				t.Errorf("L=%d/%s: took %d slots, want %d", tc.limit, priorityNames[p], taken, want)
			}
		}
	}
}

// TestRetryAfterHints: the request past a priority's threshold answers
// 503 with Retry-After: 1, whatever its priority.
func TestRetryAfterHints(t *testing.T) {
	for _, tc := range admissionCases {
		if tc.limit == 0 {
			continue // nothing is refused
		}
		srv := New(Config{MaxInFlight: tc.limit})
		for p := range numPriorities {
			_, w := fillAndAsk(t, srv, tc.limit, p)
			if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" {
				t.Errorf("L=%d/%s: status %d, Retry-After %q; want 503, 1",
					tc.limit, priorityNames[p], w.Code, w.Header().Get("Retry-After"))
			}
		}
	}
}

// TestPriorityNames: each shed counts one under its priority's name in
// qaserve_admission_shed_total, and the rejected outcome is their sum.
func TestPriorityNames(t *testing.T) {
	for _, tc := range admissionCases {
		srv := New(Config{MaxInFlight: tc.limit})
		for p := range numPriorities {
			fillAndAsk(t, srv, tc.limit, p)
		}
		sheds := 1
		if tc.limit == 0 {
			sheds = 0
		}
		var text strings.Builder
		srv.m.render(&text)
		for _, want := range []string{
			fmt.Sprintf(`qaserve_requests_total{outcome="rejected"} %d`, 2*sheds),
			fmt.Sprintf(`qaserve_admission_shed_total{priority="normal"} %d`, sheds),
			fmt.Sprintf(`qaserve_admission_shed_total{priority="cached"} %d`, sheds),
		} {
			if !strings.Contains(text.String(), want+"\n") {
				t.Errorf("L=%d: metrics missing %q", tc.limit, want)
			}
		}
		if strings.Contains(text.String(), `priority="batch"`) {
			t.Errorf("L=%d: metrics still carry a batch shed series", tc.limit)
		}
	}
}

// TestAdmissionConcurrent: goroutines taking and freeing slots at mixed
// priorities never push the in-flight count past L + L/4, every 503
// is one counted shed, and the count returns to 0.
func TestAdmissionConcurrent(t *testing.T) {
	const limit, workers, rounds = 4, 8, 2000
	srv := New(Config{MaxInFlight: limit})
	var (
		wg       sync.WaitGroup
		rejected atomic.Uint64
	)
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				p := priority((g + i) % int(numPriorities))
				w := httptest.NewRecorder()
				if !srv.acquire(w, p) {
					rejected.Add(1)
					continue
				}
				if n := srv.m.inflight.Load(); n > limit+limit/4 {
					t.Errorf("in-flight %d passed %d", n, limit+limit/4)
				}
				runtime.Gosched() // hold the slot while others contend
				srv.freeSlot()
			}
		}()
	}
	wg.Wait()
	if n := srv.m.inflight.Load(); n != 0 {
		t.Fatalf("in-flight %d after every slot was freed", n)
	}
	var shed uint64
	for p := range srv.m.shed {
		shed += srv.m.shed[p].Load()
	}
	if shed != rejected.Load() {
		t.Fatalf("%d sheds counted for %d rejections", shed, rejected.Load())
	}
	t.Logf("%d of %d requests shed", shed, workers*rounds)
}

// BenchmarkAdmitRelease measures the admission a request pays: one
// normal-priority slot taken and freed at qaserve's default limit of
// 64, uncontended.
func BenchmarkAdmitRelease(b *testing.B) {
	srv := New(Config{MaxInFlight: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !srv.trySlot(prioNormal) {
			b.Fatal("rejected at idle")
		}
		srv.freeSlot()
	}
}
