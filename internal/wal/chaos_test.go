package wal_test

// Chaos fault points on the WAL manager: injected faults must fail
// commits cleanly (pre-append, nothing durable, store untouched),
// compaction faults must stay best-effort, and the poisoned state must
// be observable for the serving layer's degraded mode.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// startChaosRun is startRun with an armed injector on the manager.
func startChaosRun(t *testing.T, fsys *faultfs.FS, in *chaos.Injector, compact int64, initial []rdf.Triple) *run {
	t.Helper()
	rec, err := wal.Recover(dataDir, wal.Options{FS: fsys, CompactBytes: compact, Chaos: in})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddAll(initial)
	m, err := rec.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{t: t, fsys: fsys, m: m, st: st, states: map[uint64]*store.Snapshot{}}
	r.acked = st.Snapshot().Gen()
	r.states[r.acked] = st.Snapshot()
	return r
}

// TestChaosAppendFaultFailsCommitCleanly: an injected wal.append fault
// rejects the batch before any byte reaches the log — the store and
// generation are untouched, the manager keeps committing once the rule
// is exhausted, and a crash recovers exactly the acknowledged batches.
func TestChaosAppendFaultFailsCommitCleanly(t *testing.T) {
	for _, point := range []string{"wal.append", "wal.apply"} {
		fsys := faultfs.New()
		in := chaos.New(3, chaos.Rule{Point: point, Kind: chaos.KindError, Prob: 1, Limit: 1})
		in.Disable() // boot (Open's checkpoint) runs fault-free
		r := startChaosRun(t, fsys, in, -1, []rdf.Triple{triple(0)})
		r.apply(ins(1))
		in.Enable()

		before := r.m.Gen()
		_, err := r.m.Apply(context.Background(), []store.BatchOp{ins(2)})
		var ie *chaos.InjectedError
		if !errors.As(err, &ie) || ie.Point != point {
			t.Fatalf("%s: Apply err = %v, want injected error", point, err)
		}
		if r.m.Gen() != before {
			t.Fatalf("%s: injected fault moved gen %d → %d", point, before, r.m.Gen())
		}
		if r.m.Poisoned() {
			t.Fatalf("%s: clean injected failure poisoned the log", point)
		}

		// Rule exhausted: the same manager commits again.
		r.apply(ins(3))

		rec := recoverOn(t, r, fsys.Crash(rand.New(rand.NewSource(1))))
		if rec.Gen != r.acked {
			t.Fatalf("%s: recovered gen %d, want last acked %d", point, rec.Gen, r.acked)
		}
	}
}

// TestChaosCompactFaultIsBestEffort: a wal.compact fault fails the
// explicit checkpoint with the injected error but never un-commits
// anything — the log still proves the batches, and recovery lands on
// the last acknowledged generation.
func TestChaosCompactFaultIsBestEffort(t *testing.T) {
	fsys := faultfs.New()
	in := chaos.New(5, chaos.Rule{Point: "wal.compact", Kind: chaos.KindError, Prob: 1})
	in.Disable()
	r := startChaosRun(t, fsys, in, -1, []rdf.Triple{triple(0)})
	r.apply(ins(1))
	r.apply(ins(2))
	in.Enable()

	var ie *chaos.InjectedError
	if err := r.m.Compact(); !errors.As(err, &ie) {
		t.Fatalf("Compact err = %v, want injected error", err)
	}
	// Commits keep working with compaction failing.
	r.apply(ins(3))

	in.Disable()
	if err := r.m.Compact(); err != nil {
		t.Fatalf("Compact after faults stop: %v", err)
	}

	rec := recoverOn(t, r, fsys.Crash(rand.New(rand.NewSource(2))))
	if rec.Gen != r.acked {
		t.Fatalf("recovered gen %d, want %d", rec.Gen, r.acked)
	}
}

// TestPoisonedReporting: the observable poisoned state flips exactly
// when an append rollback fails, and stays set.
func TestPoisonedReporting(t *testing.T) {
	fsys := faultfs.New()
	r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
	r.apply(ins(1))
	if r.m.Poisoned() {
		t.Fatal("healthy manager reports poisoned")
	}
	fsys.FailWrite(wal.LogName, 1, 3)
	fsys.FailTruncate(wal.LogName, 1)
	r.applyFails(ins(2))
	if !r.m.Poisoned() {
		t.Fatal("failed rollback did not surface as poisoned")
	}
	// Still poisoned on the next probe; appends stay refused.
	if _, err := r.m.Apply(context.Background(), []store.BatchOp{ins(3)}); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if !r.m.Poisoned() {
		t.Fatal("poisoned state did not stick")
	}
}
