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

// TestChaosAppendFaultFailsCommitCleanly: an injected wal.append or
// wal.apply fault rejects the batch before any byte reaches the log —
// the store and generation are untouched, the manager keeps committing
// on the same armed context once the rule is exhausted, and a crash
// recovers exactly the acknowledged batches. Boot and the commits on a
// context without the injector run fault-free.
func TestChaosAppendFaultFailsCommitCleanly(t *testing.T) {
	for _, point := range []string{"wal.append", "wal.apply"} {
		fsys := faultfs.New()
		in := chaos.New(3, chaos.Rule{Point: point, Kind: chaos.KindError, Prob: 1, Limit: 1})
		armed := chaos.With(context.Background(), in)
		r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
		r.apply(ins(1))

		before := r.m.Gen()
		_, err := r.m.Apply(armed, []store.BatchOp{ins(2)})
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
		r.applyCtx(armed, ins(3))

		rec := recoverOn(t, r, fsys.Crash(rand.New(rand.NewSource(1))))
		if rec.Gen != r.acked {
			t.Fatalf("%s: recovered gen %d, want last acked %d", point, rec.Gen, r.acked)
		}
	}
}

// TestChaosCompactFaultIsBestEffort: with a threshold every commit
// crosses, a wal.compact fault skips the checkpoint of the commit it
// rides on, and a failed segment write fails it, but neither fails or
// un-commits anything — the log keeps the batches, CompactionFailures
// counts each missed checkpoint, the next commit that can checkpoints,
// and recovery lands on the last acknowledged generation.
func TestChaosCompactFaultIsBestEffort(t *testing.T) {
	fsys := faultfs.New()
	in := chaos.New(5, chaos.Rule{Point: "wal.compact", Kind: chaos.KindError, Prob: 1})
	armed := chaos.With(context.Background(), in)
	r := startRun(t, fsys, 1, []rdf.Triple{triple(0)})
	empty := fsys.FileLen(logPath())

	r.applyCtx(armed, ins(1))
	r.applyCtx(armed, ins(2))
	if got := in.Snapshot(); len(got) != 1 || got[0].Point != "wal.compact" || got[0].Count != 2 {
		t.Fatalf("injections = %+v, want wal.compact twice", got)
	}
	if n := fsys.FileLen(logPath()); n <= empty {
		t.Fatalf("log is %d bytes after two skipped checkpoints, want more than the empty %d", n, empty)
	}
	if n := fsys.FileLen(segPath(r.acked)); n != -1 {
		t.Fatalf("a skipped checkpoint wrote segment %d (%d bytes)", r.acked, n)
	}
	if n := r.m.CompactionFailures(); n != 2 {
		t.Fatalf("CompactionFailures = %d after two skipped checkpoints, want 2", n)
	}

	// The faults stop with the injector's context, but the segment
	// write of this commit's checkpoint fails: the commit stands, the
	// log keeps growing and the miss is counted.
	fsys.FailWrite("segment-", 1, 0)
	before := fsys.FileLen(logPath())
	r.apply(ins(3))
	if n := fsys.FileLen(logPath()); n <= before {
		t.Fatalf("log is %d bytes after a failed checkpoint, want more than %d", n, before)
	}
	if n := fsys.FileLen(segPath(r.acked)); n != -1 {
		t.Fatalf("a failed checkpoint left segment %d (%d bytes)", r.acked, n)
	}
	if n := r.m.CompactionFailures(); n != 3 {
		t.Fatalf("CompactionFailures = %d after a failed segment write, want 3", n)
	}

	// Nothing fails now: this commit checkpoints, the log is empty
	// again, and the count stays.
	r.apply(ins(4))
	if n := fsys.FileLen(logPath()); n != empty {
		t.Fatalf("log is %d bytes after the checkpoint, want the empty %d", n, empty)
	}
	if n := fsys.FileLen(segPath(r.acked)); n <= 0 {
		t.Fatalf("no segment at gen %d after the checkpoint", r.acked)
	}
	if n := r.m.CompactionFailures(); n != 3 {
		t.Fatalf("CompactionFailures = %d after a checkpoint, want 3", n)
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
