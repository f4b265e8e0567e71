package qaserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qacache"
	"repro/internal/qald"
	"repro/internal/shard"
	"repro/internal/testutil"
)

// referenceBody is what the server wrote before reply.go: v through
// json.Encoder (HTML-safe escaping, trailing newline).
func referenceBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReply holds writeResult to the oracle on one Result: the same
// body, byte for byte, under the same Content-Type and status code.
func checkReply(t *testing.T, s *Server, code int, res *core.Result) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	s.writeResult(got, code, res)
	writeJSON(want, code, s.toResponse(res))
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%q (%v): reply differs from encoding/json\n got: %s\nwant: %s", res.Question, res.Status, got.Body, want.Body)
	}
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Errorf("%q: %d %q, want %d %q", res.Question, got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
}

// wireQuestions is every QALD question and every entity-template
// question (the streams of qaload's workloads), one per cache key.
func wireQuestions(k *kb.KB) []string {
	var questions []string
	for _, q := range qald.FullSet() {
		questions = append(questions, q.Text)
	}
	questions = append(questions, testutil.EntityQuestions(k)...)
	seen := map[string]bool{}
	return slices.DeleteFunc(questions, func(q string) bool {
		key := qacache.Normalize(q)
		dup := seen[key]
		seen[key] = true
		return dup
	})
}

// hostileStrings exercise every branch of the string escaper.
var hostileStrings = []string{
	"", "<script>alert(1)</script> & \"quotes\" \\ back",
	"line\u2028sep and para\u2029sep", "ctl \x00\x01\x07\b\t\n\v\f\r\x1b\x1f del \x7f",
	"lone \xff byte", "truncated \xe2\x82", "overlong \xc0\xaf", "surrogate \xed\xa0\x80",
	"Orhan Pamuk’un kitabı — ‹§2.2›", "\U0001F600 and \ufffd itself",
}

// TestAppendReplyMatchesEncodingJSON: the appender writes what
// json.Encoder wrote over the retained toResponse — for every QALD and
// entity question on a miss and on a hit, for hostile question text, for
// the 504/503/500 outcomes, for the shard stamps of a 4-shard system
// (healthy, unavailable, degraded), for durations down to zero, and for
// a batch.
func TestAppendReplyMatchesEncodingJSON(t *testing.T) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.CacheSize = 4096
	sys := core.New(cfg)
	s := New(Config{Sys: sys})

	questions := wireQuestions(sys.KB)
	for _, h := range hostileStrings[1:] {
		questions = append(questions, h, "How tall is "+h+"?")
	}
	statuses := map[core.Status]int{}
	for _, hit := range []bool{false, true} {
		for _, q := range questions {
			res := sys.AnswerCtx(ctx, q)
			if res.CacheHit != hit {
				t.Fatalf("%q: cache hit %v, want %v", q, res.CacheHit, hit)
			}
			statuses[res.Status]++
			checkReply(t, s, http.StatusOK, res)
		}
	}
	if statuses[core.StatusAnswered] < 1000 || statuses[core.StatusNotExtracted] == 0 || statuses[core.StatusNotMapped] == 0 {
		t.Fatalf("the stream does not cover the outcomes it is here for: %v", statuses)
	}

	// Durations: duration_ms is whole microseconds over 1e3, so anything
	// under a microsecond is 0 and the rest never needs an exponent.
	res := sys.AnswerCtx(ctx, "How tall is Michael Jordan? (durations)")
	for _, d := range []time.Duration{0, 1, 999, time.Microsecond, 1001, 1500 * time.Microsecond,
		123456789, time.Second, 3*time.Hour + time.Microsecond} {
		for i := range res.Trace.Stages {
			res.Trace.Stages[i].Duration = d + time.Duration(i)*time.Microsecond
		}
		checkReply(t, s, http.StatusOK, res)
	}

	// 504: cancelled before the first stage (no trace entry carries the
	// error) and a deadline that expires at a stage boundary.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	expired, cancel2 := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel2()
	for _, c := range []context.Context{cancelled, expired} {
		res := sys.AnswerCtx(c, "Which book is written by Orhan Pamuk? (504)")
		if res.Status != core.StatusCanceled {
			t.Fatalf("status %v, want canceled", res.Status)
		}
		checkReply(t, s, http.StatusGatewayTimeout, res)
	}

	// 500: an injected stage error and a recovered stage panic.
	in := chaos.New(7,
		chaos.Rule{Point: "stage.answer", Kind: chaos.KindError, Prob: 1, Limit: 1},
		chaos.Rule{Point: "stage.triplex", Kind: chaos.KindPanic, Prob: 1, Limit: 1})
	for i := 0; i < 2; i++ {
		res := sys.AnswerCtx(chaos.With(ctx, in), "When did Frank Herbert die? (500)")
		if res.Status != core.StatusInternal {
			t.Fatalf("status %v, want internal error", res.Status)
		}
		checkReply(t, s, http.StatusInternalServerError, res)
	}

	// The shard stamps, on a 4-shard system whose shard 1 is down until
	// the injector is switched off: 503 unavailable, a degraded partial
	// answer, then healthy 4/4 on a miss and on a hit.
	scfg := fastShardConfig()
	scfg.MaxAttempts = 1
	shardCfg := core.DefaultConfig()
	shardCfg.KB = kb.Build(kb.DefaultConfig()) // private copy: the cluster partitions its store
	shardCfg.CacheSize = 64
	shardCfg.Cluster = shard.NewCluster(shardCfg.KB.Store, 4, scfg)
	sharded := core.New(shardCfg)
	ss := New(Config{Sys: sharded, Cluster: shardCfg.Cluster})
	down := chaos.New(5, chaos.Rule{Point: "shard.query.1", Kind: chaos.KindError, Prob: 1})
	const q = "Which book is written by Orhan Pamuk?"
	res = sharded.AnswerCtx(chaos.With(ctx, down), q)
	if res.Status != core.StatusUnavailable || res.ShardsTotal != 4 {
		t.Fatalf("fail-fast: %v %d/%d", res.Status, res.ShardsAnswered, res.ShardsTotal)
	}
	checkReply(t, ss, http.StatusServiceUnavailable, res)
	res = sharded.AnswerCtx(shard.WithPartialOK(chaos.With(ctx, down)), q)
	if !res.Degraded || res.ShardsAnswered != 3 {
		t.Fatalf("partial: degraded %v %d/%d", res.Degraded, res.ShardsAnswered, res.ShardsTotal)
	}
	checkReply(t, ss, http.StatusOK, res)
	for _, hit := range []bool{false, true} {
		res = sharded.AnswerCtx(ctx, q)
		if res.CacheHit != hit || res.Degraded || res.ShardsAnswered != 4 {
			t.Fatalf("healthy: hit %v degraded %v %d/%d", res.CacheHit, res.Degraded, res.ShardsAnswered, res.ShardsTotal)
		}
		checkReply(t, ss, http.StatusOK, res)
	}

	// A batch: an answer, a hit of it and a failure, in order.
	batch := []*core.Result{sys.AnswerCtx(ctx, "Where did Abraham Lincoln die? (batch)"),
		sys.AnswerCtx(ctx, "Where did Abraham Lincoln die? (batch)"), sys.AnswerCtx(ctx, "gibberish <blob>")}
	want := BatchResponse{}
	for _, res := range batch {
		want.Results = append(want.Results, s.toResponse(res))
	}
	rec := httptest.NewRecorder()
	s.writeResults(rec, http.StatusOK, `{"results":[`, "]}\n", batch...)
	if !bytes.Equal(rec.Body.Bytes(), referenceBody(t, want)) {
		t.Errorf("batch reply differs from encoding/json\n got: %s\nwant: %s", rec.Body, referenceBody(t, want))
	}
}

// TestCachedReplyEqualsFresh is cached ≡ fresh at the wire: through the
// handler, the body of a hit is the body of the miss that filled the
// entry, apart from cache_hit and the trace — which a cache entry that
// keeps only the outcome must still deliver.
func TestCachedReplyEqualsFresh(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CacheSize = 4096
	sys := core.New(cfg)
	h := New(Config{Sys: sys}).Handler()
	post := func(question string) AnswerResponse {
		body, err := json.Marshal(AnswerRequest{Question: question})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body)))
		var ar AnswerResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil || w.Code != http.StatusOK {
			t.Fatalf("%q: %d %v: %s", question, w.Code, err, w.Body)
		}
		return ar
	}
	for _, q := range wireQuestions(sys.KB) {
		miss, hit := post(q), post(q)
		if miss.CacheHit || !hit.CacheHit || len(hit.Trace) != 1 || !hit.Trace[0].CacheHit {
			t.Fatalf("%q: miss hit=%v, hit hit=%v trace=%+v", q, miss.CacheHit, hit.CacheHit, hit.Trace)
		}
		miss.Trace, hit.Trace, hit.CacheHit = nil, nil, false
		if m, c := referenceBody(t, miss), referenceBody(t, hit); !bytes.Equal(m, c) {
			t.Errorf("%q: cached reply differs from fresh\nfresh:  %scached: %s", q, m, c)
		}
	}
}

// FuzzAppendString: appendString is json.Marshal on every string —
// the escapes, the pass-through, and the replacement of invalid UTF-8.
func FuzzAppendString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		// Appending must leave what the buffer already holds alone.
		if got := appendString([]byte("x"), s); !strings.HasPrefix(string(got), "x") || !bytes.Equal(got[1:], want) {
			t.Errorf("appendString onto a prefix: %s", got)
		}
	})
}
