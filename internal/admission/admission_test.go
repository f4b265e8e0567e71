package admission

import (
	"testing"
	"time"
)

func fixedClock(start time.Time) (func() time.Time, func(time.Duration)) {
	now := start
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestAdditiveIncreaseUnderLowLatency(t *testing.T) {
	l := New(Options{Initial: 4, Max: 64, Target: 100 * time.Millisecond})
	for i := 0; i < 200; i++ {
		if !l.Acquire(Normal) {
			t.Fatalf("acquire %d rejected below the limit", i)
		}
		l.Release(10 * time.Millisecond)
	}
	if lim := l.Limit(); lim <= 4 {
		t.Fatalf("limit = %d after 200 fast samples, want growth", lim)
	}
}

func TestMultiplicativeDecreaseUnderHighLatency(t *testing.T) {
	l := New(Options{Initial: 32, Min: 2, Target: 10 * time.Millisecond})
	for i := 0; i < 50; i++ {
		if !l.Acquire(Normal) {
			break
		}
		l.Release(time.Second)
	}
	if lim := l.Limit(); lim >= 32 {
		t.Fatalf("limit = %d after slow samples, want decrease", lim)
	}
	// The floor holds no matter how bad the latency gets.
	for i := 0; i < 500; i++ {
		if l.Acquire(Normal) {
			l.Release(time.Minute)
		}
	}
	if lim := l.Limit(); lim < 2 {
		t.Fatalf("limit = %d fell through Min", lim)
	}
}

func TestDecreaseCooldownUsesInjectedClock(t *testing.T) {
	now, advance := fixedClock(time.Unix(1000, 0))
	l := New(Options{Initial: 32, Min: 1, Target: time.Millisecond,
		Now: now})
	slow := func() {
		if l.Acquire(Normal) {
			l.Release(time.Second)
		}
	}
	slow()
	after1 := l.Limit()
	if after1 >= 32 {
		t.Fatalf("first decrease did not apply: %d", after1)
	}
	// Within the window: no further decrease, however slow the samples.
	for i := 0; i < 10; i++ {
		slow()
	}
	if l.Limit() != after1 {
		t.Fatalf("limit moved to %d inside the cooldown window", l.Limit())
	}
	advance(2 * time.Second)
	slow()
	if l.Limit() >= after1 {
		t.Fatalf("limit = %d after the window elapsed, want another decrease", l.Limit())
	}
}

func TestPrioritySheddingOrder(t *testing.T) {
	l := New(Options{Initial: 8})
	// Fill to the batch threshold (8 - 8/4 = 6): batch sheds first.
	for i := 0; i < 6; i++ {
		if !l.Acquire(Normal) {
			t.Fatalf("fill %d rejected", i)
		}
	}
	if l.Acquire(Batch) {
		t.Fatal("batch admitted at the batch threshold")
	}
	// Normal still fits up to the limit.
	if !l.Acquire(Normal) || !l.Acquire(Normal) {
		t.Fatal("normal rejected below the limit")
	}
	if l.Acquire(Normal) {
		t.Fatal("normal admitted past the limit")
	}
	// Cached rides the reserve above the limit.
	if !l.Acquire(Cached) || !l.Acquire(Cached) {
		t.Fatal("cached rejected inside the reserve")
	}
	if l.Acquire(Cached) {
		t.Fatal("cached admitted past limit + reserve")
	}
	b, n, c := l.Shed()
	if b != 1 || n != 1 || c != 1 {
		t.Fatalf("shed counts = %d/%d/%d", b, n, c)
	}
	// Slot-only releases return capacity without moving the limit: a
	// freed slot admits a normal request again.
	for i := 0; i < 3; i++ {
		l.Release(-1)
	}
	if l.InFlight() != 7 || l.Limit() != 8 {
		t.Fatalf("after 3 slot releases: inflight %d, limit %d; want 7, 8", l.InFlight(), l.Limit())
	}
	if !l.Acquire(Normal) {
		t.Fatal("normal rejected after a slot was released")
	}
}

func TestRetryAfterHints(t *testing.T) {
	if RetryAfter(Batch) <= RetryAfter(Normal) {
		t.Fatal("batch should back off longer than normal")
	}
	for _, p := range []Priority{Batch, Normal, Cached} {
		if RetryAfter(p) < 1 {
			t.Fatalf("RetryAfter(%v) = %d", p, RetryAfter(p))
		}
	}
}

func TestPriorityNames(t *testing.T) {
	for p, want := range map[Priority]string{Batch: "batch", Normal: "normal", Cached: "cached"} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}
