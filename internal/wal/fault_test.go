package wal_test

// Differential fault-injection tests: every batch acknowledged by
// Manager.Apply is recorded together with the snapshot it published,
// faults and crashes are injected through faultfs, and recovery is then
// required to land on one of those recorded batch boundaries — its
// triples and its dictionary, ID for ID — never between two, never on a
// partial batch. For fault modes where the commit fsync succeeded (torn tails,
// short writes, failed syncs of *later* batches) the landed boundary
// must be exactly the last acknowledged one; only media corruption of
// already-durable bytes (bit flips) may push recovery to an earlier
// boundary.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

const dataDir = "data"

func logPath() string { return dataDir + "/" + wal.LogName }

func segPath(gen uint64) string {
	return dataDir + "/" + fmt.Sprintf(wal.SegmentPattern, gen)
}

func triple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
		P: rdf.NewIRI("http://x/p"),
		O: rdf.NewTypedLiteral(fmt.Sprintf("%d", i), rdf.XSDInteger),
	}
}

// run drives one Manager over a faultfs and records, per committed
// generation, the snapshot the store published at that batch boundary.
type run struct {
	t      *testing.T
	fsys   *faultfs.FS
	m      *wal.Manager
	st     *store.Store
	states map[uint64]*store.Snapshot
	acked  uint64 // generation of the last acknowledged batch
}

// startRun bootstraps a fresh data dir on fsys with initial contents.
func startRun(t *testing.T, fsys *faultfs.FS, compact int64, initial []rdf.Triple) *run {
	t.Helper()
	rec, err := wal.Recover(dataDir, wal.Options{FS: fsys, CompactBytes: compact})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Store != nil {
		t.Fatal("fresh faultfs dir claims durable state")
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

// apply commits one batch and records the boundary it produced.
func (r *run) apply(ops ...store.BatchOp) {
	r.t.Helper()
	r.applyCtx(context.Background(), ops...)
}

// applyCtx is apply on the given context (one carrying a fault
// injector, in the chaos tests).
func (r *run) applyCtx(ctx context.Context, ops ...store.BatchOp) {
	r.t.Helper()
	c, err := r.m.Apply(ctx, ops)
	if err != nil {
		r.t.Fatal(err)
	}
	r.acked = c.Gen
	r.states[c.Gen] = r.st.Snapshot()
}

// applyFails asserts the batch is rejected and the store unchanged.
func (r *run) applyFails(ops ...store.BatchOp) {
	r.t.Helper()
	before := r.st.Snapshot().Gen()
	if _, err := r.m.Apply(context.Background(), ops); err == nil {
		r.t.Fatal("Apply succeeded despite injected fault")
	}
	if g := r.st.Snapshot().Gen(); g != before {
		r.t.Fatalf("failed Apply moved the store from gen %d to %d", before, g)
	}
	if !reflect.DeepEqual(r.st.Snapshot().Triples(), r.states[r.acked].Triples()) {
		r.t.Fatal("failed Apply mutated the store contents")
	}
}

// recoverOn recovers from a crash image and asserts the recovered
// store is exactly one of the recorded batch boundaries: the same
// triples and the same dictionary, so every ID means what it meant.
func recoverOn(t *testing.T, r *run, crash *faultfs.FS) *wal.Recovery {
	t.Helper()
	rec, err := wal.Recover(dataDir, wal.Options{FS: crash})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Store == nil {
		t.Fatal("recovery found no durable state")
	}
	want, ok := r.states[rec.Gen]
	if !ok {
		t.Fatalf("recovered generation %d is not a committed batch boundary (committed: %v)", rec.Gen, genList(r))
	}
	got := rec.Store.Snapshot()
	if !reflect.DeepEqual(got.Triples(), want.Triples()) {
		t.Fatalf("recovered contents at gen %d differ from the committed boundary", rec.Gen)
	}
	if !reflect.DeepEqual(got.TermsView(), want.TermsView()) {
		t.Fatalf("recovered dictionary at gen %d differs from the committed boundary", rec.Gen)
	}
	if rec.Gen > r.acked {
		t.Fatalf("recovered gen %d is beyond the last acknowledged batch %d", rec.Gen, r.acked)
	}
	return rec
}

func genList(r *run) []uint64 {
	var gens []uint64
	for g := range r.states {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

func ins(is ...int) store.BatchOp {
	op := store.BatchOp{}
	for _, i := range is {
		op.Triples = append(op.Triples, triple(i))
	}
	return op
}

func del(is ...int) store.BatchOp {
	op := ins(is...)
	op.Delete = true
	return op
}

// TestTornWriteRecovery crashes mid-append: the log write persists a
// random prefix of the record and the rollback truncate never runs
// (the injected truncate failure models the process dying first).
// Every acknowledged batch must survive; the torn tail must not.
func TestTornWriteRecovery(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fsys := faultfs.New()
		r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
		for i := 1; i <= 5; i++ {
			r.apply(ins(i))
		}
		fsys.FailWrite(wal.LogName, 1, rng.Intn(40))
		fsys.FailTruncate(wal.LogName, 1)
		r.applyFails(ins(6))
		// The failed rollback poisons the log: later appends are refused
		// rather than risked after garbage.
		if _, err := r.m.Apply(context.Background(), []store.BatchOp{ins(7)}); err == nil {
			t.Fatal("poisoned log accepted an append")
		}

		crash := fsys.Crash(rng) // keep a random prefix of the torn bytes
		rec := recoverOn(t, r, crash)
		if rec.Gen != r.acked {
			t.Fatalf("seed %d: acknowledged batch lost: recovered gen %d, want %d", seed, rec.Gen, r.acked)
		}
	}
}

// TestShortWriteRollback injects a short write whose rollback succeeds:
// the request errors, the store is untouched, the manager keeps
// working, and a later crash recovers every acknowledged batch.
func TestShortWriteRollback(t *testing.T) {
	for _, short := range []int{0, 1, 7, 11} {
		fsys := faultfs.New()
		r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
		r.apply(ins(1))
		fsys.FailWrite(wal.LogName, 1, short)
		r.applyFails(ins(2))
		r.apply(ins(3)) // the log recovered its offset; appends continue
		r.apply(del(1))

		rec := recoverOn(t, r, fsys.Crash(nil))
		if rec.Gen != r.acked {
			t.Fatalf("short=%d: recovered gen %d, want %d", short, rec.Gen, r.acked)
		}
	}
}

// TestSyncFailureRollback injects an fsync failure at the commit point:
// the batch was fully written but never durable, so it must not be
// acknowledged — and must not reappear after a crash, torn or clean.
func TestSyncFailureRollback(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		fsys := faultfs.New()
		r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
		r.apply(ins(1), ins(2))
		fsys.FailSync(wal.LogName, 1)
		r.applyFails(ins(3))
		r.apply(ins(4))

		var crash *faultfs.FS
		if seed%2 == 0 {
			crash = fsys.Crash(nil)
		} else {
			crash = fsys.Crash(rand.New(rand.NewSource(seed)))
		}
		rec := recoverOn(t, r, crash)
		if rec.Gen != r.acked {
			t.Fatalf("seed %d: recovered gen %d, want %d", seed, rec.Gen, r.acked)
		}
	}
}

// TestBitFlipRecovery flips one random durable bit in the log and
// requires recovery to land on a committed boundary at or before the
// flip — the CRC must catch every single-bit corruption.
func TestBitFlipRecovery(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fsys := faultfs.New()
		r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
		for i := 1; i <= 6; i++ {
			if i%3 == 0 {
				r.apply(del(i-1), ins(10+i))
			} else {
				r.apply(ins(i))
			}
		}
		crash := fsys.Crash(nil)
		sz := crash.FileLen(logPath())
		if sz <= 0 {
			t.Fatal("no log in crash image")
		}
		if !crash.FlipBit(logPath(), rng.Int63n(sz), uint(rng.Intn(8))) {
			t.Fatal("flip out of range")
		}
		recoverOn(t, r, crash) // any committed boundary is acceptable
	}
}

// TestSegmentCorruptionFallsBack corrupts the newest segment: recovery
// must fall back to the previous retained segment and discard the log
// tail (whose records describe batches on top of the lost state),
// landing on that older — but still committed — boundary.
func TestSegmentCorruptionFallsBack(t *testing.T) {
	fsys := faultfs.New()
	r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
	baseGen := r.acked // bootstrap segment
	for i := 1; i <= 3; i++ {
		r.apply(ins(i))
	}
	if err := r.m.Compact(); err != nil {
		t.Fatal(err)
	}
	compactGen := r.acked // newest segment is at this gen
	r.apply(ins(4))
	r.apply(ins(5))

	crash := fsys.Crash(nil)
	if !crash.FlipBit(segPath(compactGen), 20, 3) {
		t.Fatalf("no segment at gen %d in crash image", compactGen)
	}
	rec := recoverOn(t, r, crash)
	if rec.SegmentGen != baseGen {
		t.Fatalf("fell back to segment gen %d, want %d", rec.SegmentGen, baseGen)
	}
	if rec.Gen != baseGen || rec.Records != 0 {
		t.Fatalf("log tail not discarded after fallback: gen %d, %d records", rec.Gen, rec.Records)
	}
}

// TestCompactionFaultLeavesLogIntact fails the segment write mid-
// compaction: the compaction errors, the log keeps every record, and
// recovery still reproduces the last acknowledged state.
func TestCompactionFaultLeavesLogIntact(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		fsys := faultfs.New()
		r := startRun(t, fsys, -1, []rdf.Triple{triple(0)})
		for i := 1; i <= 4; i++ {
			r.apply(ins(i))
		}
		switch mode {
		case "write":
			fsys.FailWrite(".tmp", 2, 5) // payload write of the new segment
		case "sync":
			fsys.FailSync(".tmp", 1)
		}
		if err := r.m.Compact(); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("%s: Compact error = %v, want injected", mode, err)
		}
		r.apply(ins(5)) // the manager keeps accepting writes

		rec := recoverOn(t, r, fsys.Crash(nil))
		if rec.Gen != r.acked {
			t.Fatalf("%s: recovered gen %d, want %d", mode, rec.Gen, r.acked)
		}
	}
}

// TestRandomizedFaultDifferential interleaves random batches with
// randomly injected write/sync faults, crashes with a random torn
// tail, and requires recovery to land exactly on the last acknowledged
// boundary — the full differential guarantee, across many seeds.
func TestRandomizedFaultDifferential(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		fsys := faultfs.New()
		r := startRun(t, fsys, -1, []rdf.Triple{triple(0), triple(1)})
		present := map[int]bool{0: true, 1: true}

		for step := 0; step < 10; step++ {
			var ops []store.BatchOp
			for n := 1 + rng.Intn(3); n > 0; n-- {
				k := rng.Intn(30)
				if present[k] && rng.Intn(2) == 0 {
					ops = append(ops, del(k))
					present[k] = false
				} else {
					ops = append(ops, ins(k))
					present[k] = true
				}
			}
			faulted := false
			switch rng.Intn(4) {
			case 0:
				fsys.FailWrite(wal.LogName, 1, rng.Intn(20))
				faulted = true
			case 1:
				fsys.FailSync(wal.LogName, 1)
				faulted = true
			}
			if faulted {
				before := r.st.Snapshot().Triples()
				if _, err := r.m.Apply(context.Background(), ops); err == nil {
					t.Fatalf("seed %d step %d: faulted Apply succeeded", seed, step)
				}
				if !reflect.DeepEqual(r.st.Snapshot().Triples(), before) {
					t.Fatalf("seed %d step %d: failed Apply mutated the store", seed, step)
				}
				// The batch was rejected: resynchronise the model.
				present = presentSet(r.st.Snapshot().Triples())
			} else {
				r.apply(ops...)
			}
		}

		rec := recoverOn(t, r, fsys.Crash(rng))
		if rec.Gen != r.acked {
			t.Fatalf("seed %d: recovered gen %d, want last acknowledged %d", seed, rec.Gen, r.acked)
		}
	}
}

func presentSet(ts []rdf.Triple) map[int]bool {
	out := map[int]bool{}
	for _, t := range ts {
		var i int
		if _, err := fmt.Sscanf(t.S.Value, "http://x/s%d", &i); err == nil {
			out[i] = true
		}
	}
	return out
}
