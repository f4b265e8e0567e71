package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// deadShardConfig fails fast: one attempt, so a
// chaos-killed shard costs one error per read.
func deadShardConfig() Config {
	cfg := fastConfig()
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 1 << 30 // keep the breaker out of these tests
	return cfg
}

// TestDegradedEqualsEmptyShardOracle: with shard 1 chaos-killed and
// the caller opted into partial answers, every query answers exactly
// what a healthy cluster whose shard 1 is empty would answer, and the
// outcome reports the degraded shape.
func TestDegradedEqualsEmptyShardOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	src, props := testStore(rng, 80, 4)
	qs := workload(props)
	const n = 3

	in := chaos.New(1, chaos.Rule{Point: "shard.query.1", Kind: chaos.KindError, Prob: 1})
	ctx := WithPartialOK(chaos.With(context.Background(), in))

	degraded := NewCluster(src, n, deadShardConfig())
	dv := degraded.NewView(ctx)
	got := runWorkload(t, ctx, sparql.NewViewSession(dv), qs)

	oracle := NewCluster(src, n, fastConfig())
	oracle.EmptyShardForTest(1)
	ov := oracle.NewView(context.Background())
	want := runWorkload(t, context.Background(), sparql.NewViewSession(ov), qs)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: degraded answer diverged from empty-shard oracle:\ndegraded: %s\noracle:   %s",
				i, got[i], want[i])
		}
	}
	out := dv.Outcome()
	if !out.Degraded || out.ShardsTotal != n || out.ShardsAnswered != n-1 {
		t.Fatalf("degraded outcome = %+v, want total=%d answered=%d degraded", out, n, n-1)
	}
	if err := dv.Err(); err != nil {
		t.Fatalf("partial-mode view latched a fail-fast error: %v", err)
	}
	// The oracle itself is healthy — empty is not degraded.
	if out := ov.Outcome(); out.Degraded {
		t.Fatalf("empty-shard oracle reported degraded: %+v", out)
	}

	// The type-set read obeys the owner-read rule, dead owner ≡ empty
	// shard: every entity of the dead shard has no type, whichever
	// class is asked and however often; the others keep theirs.
	dsess, osess := sparql.NewViewSession(dv), sparql.NewViewSession(ov)
	classes := []rdf.Term{rdf.Ont("Person"), rdf.Ont("City"), rdf.Ont("Book")}
	typed := 0
	for e := 0; e < 80; e++ {
		ent := rdf.Res(fmt.Sprintf("E%d", e))
		sid, _ := dv.Lookup(ent)
		for _, class := range classes {
			cid, _ := dv.Lookup(class) // the coordinator's dictionary: one ID on both views
			got, want := dsess.InstanceOf(sid, cid), osess.InstanceOf(osess.Lookup(ent), osess.Lookup(class))
			if got != want {
				t.Fatalf("InstanceOf(%v, %v) = %v degraded, %v on the empty-shard oracle", ent, class, got, want)
			}
			if got && ShardOf(sid, n) == 1 {
				t.Fatalf("InstanceOf(%v, %v) answered true off dead shard 1", ent, class)
			}
			if got {
				typed++
			}
		}
	}
	if typed == 0 {
		t.Fatal("no entity of the live shards kept a type: the check proved nothing")
	}
}

// TestFailFastLatchesErrUnavailable: without the partial opt-in, the
// first failed shard read latches an ErrUnavailable-wrapped sticky
// error and every later read of the view returns empty immediately
// (no further shard attempts).
func TestFailFastLatchesErrUnavailable(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	src, props := testStore(rng, 60, 3)
	const n = 2
	in := chaos.New(1, chaos.Rule{Point: "shard.query.*", Kind: chaos.KindError, Prob: 1})
	ctx := chaos.With(context.Background(), in)

	c := NewCluster(src, n, deadShardConfig())
	v := c.NewView(ctx)
	sess := sparql.NewViewSession(v)
	if _, err := sess.ExecuteCtx(ctx, workload(props)[0]); err != nil {
		t.Fatalf("executor surfaced a hard error instead of empty rows: %v", err)
	}
	err := v.Err()
	if err == nil || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("view error = %v, want ErrUnavailable", err)
	}
	// Sticky: later reads stop attempting shards entirely.
	before := c.Stats()[0].Attempts + c.Stats()[1].Attempts
	runWorkload(t, ctx, sess, workload(props))
	after := c.Stats()[0].Attempts + c.Stats()[1].Attempts
	if after != before {
		t.Fatalf("fail-fast view kept attempting shards: %d -> %d attempts", before, after)
	}
	// A shard crash (panic) degrades the same way, never crashes the
	// coordinator.
	inP := chaos.New(2, chaos.Rule{Point: "shard.query.*", Kind: chaos.KindPanic, Prob: 1})
	vp := c.NewView(chaos.With(context.Background(), inP))
	vp.ForEachMatchIDs([3]store.ID{}, func(s, p, o store.ID) bool { return true })
	if err := vp.Err(); err == nil || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("panic attempt: view error = %v, want ErrUnavailable", err)
	}
}

// Recovery: after the chaos clears, a fresh view over the same
// cluster answers undegraded and byte-identical to the source.
func TestRecoveryAfterChaosClears(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	src, props := testStore(rng, 50, 3)
	qs := workload(props)
	const n = 3
	c := NewCluster(src, n, deadShardConfig())

	in := chaos.New(1, chaos.Rule{Point: "shard.query.1", Kind: chaos.KindError, Prob: 1})
	badCtx := WithPartialOK(chaos.With(context.Background(), in))
	bv := c.NewView(badCtx)
	runWorkload(t, badCtx, sparql.NewViewSession(bv), qs)
	if out := bv.Outcome(); !out.Degraded {
		t.Fatalf("chaos run not degraded: %+v", out)
	}

	ctx := context.Background() // the fault clears: no injector rides it
	gv := c.NewView(ctx)
	got := runWorkload(t, ctx, sparql.NewViewSession(gv), qs)
	want := runWorkload(t, ctx, sparql.NewSnapshotSession(src.Snapshot()), qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered query %d diverged: %s vs %s", i, got[i], want[i])
		}
	}
	if out := gv.Outcome(); out.Degraded || out.ShardsAnswered != n {
		t.Fatalf("recovered outcome = %+v", out)
	}
}
