package chaos

import (
	"context"
	"errors"
	"testing"
	"time"
)

// WithSleep replaces the latency sleeper (tests inject a recording
// stub so latency rules do not stall the suite). Returns the injector.
func (in *Injector) WithSleep(sleep func(time.Duration)) *Injector {
	in.sleep = sleep
	return in
}

// hit visits point on a context that carries in.
func hit(in *Injector, point string) error {
	return HitCtx(With(context.Background(), in), point)
}

// TestSeededDeterminism: the same seed and call sequence produce the
// same injection decisions.
func TestSeededDeterminism(t *testing.T) {
	run := func() []bool {
		in := New(42, Rule{Point: "p", Kind: KindError, Prob: 0.5})
		out := make([]bool, 200)
		for i := range out {
			out[i] = hit(in, "p") != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identically seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob 0.5 rule fired %d/%d times; the draw is not wired", fired, len(a))
	}
}

// TestNilAndDetachedAreInert: a nil injector attaches nothing, and an
// injector fires — and counts — only at the fault points of a context
// that carries it.
func TestNilAndDetachedAreInert(t *testing.T) {
	if err := hit(nil, "p"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	in := New(1, Rule{Point: "p", Kind: KindError, Prob: 1})
	if err := HitCtx(context.Background(), "p"); err != nil {
		t.Fatalf("a context without the injector injected: %v", err)
	}
	if snap := in.Snapshot(); len(snap) != 0 {
		t.Fatalf("a detached injector counted %+v", snap)
	}
	if err := hit(in, "p"); err == nil {
		t.Fatal("attached injector did not inject")
	}
}

func TestErrorKindIsTyped(t *testing.T) {
	in := New(1, Rule{Point: "wal.append", Kind: KindError, Prob: 1})
	err := hit(in, "wal.append")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Point != "wal.append" {
		t.Fatalf("want *InjectedError at wal.append, got %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	in := New(1, Rule{Point: "stage.answer", Kind: KindPanic, Prob: 1})
	defer func() {
		v := recover()
		ip, ok := v.(*InjectedPanic)
		if !ok || ip.Point != "stage.answer" {
			t.Fatalf("want *InjectedPanic at stage.answer, got %v", v)
		}
	}()
	hit(in, "stage.answer")
	t.Fatal("panic rule did not panic")
}

func TestLatencyKindUsesInjectedSleep(t *testing.T) {
	var slept time.Duration
	in := New(1, Rule{Point: "p", Kind: KindLatency, Prob: 1, Latency: 7 * time.Millisecond}).
		WithSleep(func(d time.Duration) { slept += d })
	if err := hit(in, "p"); err != nil {
		t.Fatalf("latency rule returned error: %v", err)
	}
	if slept != 7*time.Millisecond {
		t.Fatalf("slept %v, want 7ms", slept)
	}
}

func TestLimitAndCounts(t *testing.T) {
	in := New(1, Rule{Point: "stage.*", Kind: KindError, Prob: 1, Limit: 2})
	hits := 0
	for i := 0; i < 5; i++ {
		if hit(in, "stage.answer") != nil {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("limit 2 rule fired %d times", hits)
	}
	snap := in.Snapshot()
	if len(snap) != 1 || snap[0].Point != "stage.answer" || snap[0].Kind != KindError || snap[0].Count != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestPrefixMatch(t *testing.T) {
	in := New(1, Rule{Point: "stage.*", Kind: KindError, Prob: 1})
	if hit(in, "stage.triplex") == nil {
		t.Fatal("prefix rule did not match stage.triplex")
	}
	if hit(in, "wal.append") != nil {
		t.Fatal("prefix rule matched an unrelated point")
	}
}

func TestContextPlumbing(t *testing.T) {
	if err := HitCtx(context.Background(), "p"); err != nil {
		t.Fatalf("bare context injected: %v", err)
	}
	in := New(1, Rule{Point: "p", Kind: KindError, Prob: 1})
	ctx := With(context.Background(), in)
	if FromContext(ctx) != in {
		t.Fatal("FromContext lost the injector")
	}
	if err := HitCtx(ctx, "p"); err == nil {
		t.Fatal("carried injector did not inject")
	}
	if got := With(context.Background(), nil); FromContext(got) != nil {
		t.Fatal("With(nil) attached something")
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("stage.answer:error:0.2, wal.append:latency:1:5ms ,stage.*:panic:0.01::3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Point: "stage.answer", Kind: KindError, Prob: 0.2},
		{Point: "wal.append", Kind: KindLatency, Prob: 1, Latency: 5 * time.Millisecond},
		{Point: "stage.*", Kind: KindPanic, Prob: 0.01, Limit: 3},
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	for _, bad := range []string{
		"", "wal.append:error", "wal.append:explode:1", "wal.append:error:2", "wal.append:latency:1",
		"wal.append:latency:1:zz", "wal.append:error:0.5:1ms:x",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted a malformed spec", bad)
		}
	}
}

// TestParseSpecPoints: a rule must name a registered fault point, or a
// '*' prefix of one; anything else would arm a rule that never fires.
func TestParseSpecPoints(t *testing.T) {
	for _, tc := range []struct {
		point string
		ok    bool
	}{
		{"stage.triplex", true},
		{"stage.propmap", true},
		{"stage.answer", true},
		{"wal.apply", true},
		{"wal.append", true},
		{"wal.compact", true},
		{"shard.query.0", true},
		{"shard.query.12", true},
		{"*", true},
		{"stage.*", true},
		{"stage.ans*", true},
		{"stage.answer*", true},
		{"wal.*", true},
		{"shard.*", true},
		{"shard.query.*", true},
		{"shard.query.1*", true},
		{"stage.anwser", false},
		{"stage.cache", false},
		{"stage.answer.x", false},
		{"stage.answerx*", false},
		{"wal.fsync", false},
		{"shard.hedge", false},
		{"shard.hedge*", false},
		{"shard.query", false},
		{"shard.query.", false},
		{"shard.query.x", false},
		{"shard.query.-1", false},
		{"shard.query.+1", false},
		{"shard.query.01", false},
		{"shard.query.01*", false},
		{"shard.query.<n>", false},
		{"p", false},
		{"", false},
	} {
		_, err := ParseSpec(tc.point + ":error:1")
		if ok := err == nil; ok != tc.ok {
			t.Errorf("ParseSpec(%q:error:1): err = %v, want accepted = %v", tc.point, err, tc.ok)
		}
	}
}

// TestHitCtxLatencyEndsWithContext: an injected latency holds HitCtx
// only as long as the context lives, and the injection is counted
// either way.
func TestHitCtxLatencyEndsWithContext(t *testing.T) {
	in := New(1, Rule{Point: "p", Kind: KindLatency, Prob: 1, Latency: time.Hour})
	ctx, cancel := context.WithCancel(With(context.Background(), in))
	done := make(chan error, 1)
	go func() { done <- HitCtx(ctx, "p") }()
	for len(in.Snapshot()) == 0 {
		time.Sleep(time.Millisecond) // until the fault is drawn: HitCtx is now waiting
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled latency returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HitCtx slept on after its context was cancelled")
	}
	if snap := in.Snapshot(); len(snap) != 1 || snap[0].Count != 1 || snap[0].Kind != KindLatency {
		t.Fatalf("snapshot = %+v, want the one latency injection", snap)
	}

	// An uncancelled context waits the latency out and proceeds.
	short := New(1, Rule{Point: "p", Kind: KindLatency, Prob: 1, Latency: time.Millisecond})
	if err := HitCtx(With(context.Background(), short), "p"); err != nil {
		t.Fatalf("elapsed latency returned %v", err)
	}
}
