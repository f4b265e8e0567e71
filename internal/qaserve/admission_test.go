package qaserve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// admissionCases are the slots each priority takes from an empty
// server at L = MaxInFlight: L − L/4, L, L + L/4, a plain cap below
// L = 4, no bound at L = 0.
var admissionCases = []struct {
	limit                 int
	batch, normal, cached int
}{
	{0, unboundedTakes, unboundedTakes, unboundedTakes},
	{1, 1, 1, 1},
	{3, 3, 3, 3},
	{4, 3, 4, 5},
	{64, 48, 64, 80},
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
// slots up to its threshold and acquire admits none past it, so batch
// sheds first and a cache hit last.
func TestPrioritySheddingOrder(t *testing.T) {
	for _, tc := range admissionCases {
		srv := New(Config{MaxInFlight: tc.limit})
		for p, want := range [numPriorities]int{tc.batch, tc.normal, tc.cached} {
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
// 503 with that priority's Retry-After, and a batch backs off longer
// than a normal request.
func TestRetryAfterHints(t *testing.T) {
	for _, tc := range admissionCases {
		if tc.limit == 0 {
			continue // nothing is refused
		}
		srv := New(Config{MaxInFlight: tc.limit})
		for p := range numPriorities {
			_, w := fillAndAsk(t, srv, tc.limit, p)
			if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != retryAfter[p] {
				t.Errorf("L=%d/%s: status %d, Retry-After %q; want 503, %s",
					tc.limit, priorityNames[p], w.Code, w.Header().Get("Retry-After"), retryAfter[p])
			}
		}
	}
	hint := func(p priority) int {
		n, err := strconv.Atoi(retryAfter[p])
		if err != nil || n < 1 {
			t.Fatalf("%s: Retry-After %q is not a positive number of seconds", priorityNames[p], retryAfter[p])
		}
		return n
	}
	hint(prioCached)
	if hint(prioBatch) <= hint(prioNormal) {
		t.Fatalf("Retry-After batch %s, normal %s: batch should back off longer", retryAfter[prioBatch], retryAfter[prioNormal])
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
			fmt.Sprintf(`qaserve_requests_total{outcome="rejected"} %d`, 3*sheds),
			fmt.Sprintf(`qaserve_admission_shed_total{priority="batch"} %d`, sheds),
			fmt.Sprintf(`qaserve_admission_shed_total{priority="normal"} %d`, sheds),
			fmt.Sprintf(`qaserve_admission_shed_total{priority="cached"} %d`, sheds),
		} {
			if !strings.Contains(text.String(), want+"\n") {
				t.Errorf("L=%d: metrics missing %q", tc.limit, want)
			}
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

// TestBatchWorkerProbesAreNotSheds: a batch's extra worker that finds
// no free slot is no shed — the batch was admitted and answers 200 —
// so the shed counters and the rejected outcome stay at 0.
func TestBatchWorkerProbesAreNotSheds(t *testing.T) {
	srv := batchServer(t, Config{MaxInFlight: 4}, 3)
	// Two normal slots held: the batch takes the third (batch threshold
	// 4 − 1 = 3), and its workers find none left.
	for range 2 {
		if !srv.trySlot(prioNormal) {
			t.Fatal("fill rejected")
		}
	}
	defer func() {
		srv.freeSlot()
		srv.freeSlot()
	}()
	h := srv.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/answer/batch", strings.NewReader(
		`{"questions":["Which book is written by Orhan Pamuk?","How tall is Michael Jordan?","Where did Abraham Lincoln die?"]}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d (%s), want 200", w.Code, w.Body)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`qaserve_requests_total{outcome="rejected"} 0`,
		`qaserve_admission_shed_total{priority="batch"} 0`,
	} {
		if !strings.Contains(w.Body.String(), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
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
