package wal

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func tr(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
		P: rdf.NewIRI("http://x/p"),
		O: rdf.NewTypedLiteral(fmt.Sprintf("%d", i), rdf.XSDInteger),
	}
}

func insOp(is ...int) store.BatchOp {
	op := store.BatchOp{}
	for _, i := range is {
		op.Triples = append(op.Triples, tr(i))
	}
	return op
}

func delOp(is ...int) store.BatchOp {
	op := insOp(is...)
	op.Delete = true
	return op
}

func sortedTriples(ts []rdf.Triple) []rdf.Triple {
	out := append([]rdf.Triple(nil), ts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S.Value < b.S.Value
		}
		if a.P != b.P {
			return a.P.Value < b.P.Value
		}
		return a.O.Value+"\x00"+a.O.Datatype < b.O.Value+"\x00"+b.O.Datatype
	})
	return out
}

func sameContents(t *testing.T, got, want []rdf.Triple) {
	t.Helper()
	if !reflect.DeepEqual(sortedTriples(got), sortedTriples(want)) {
		t.Fatalf("contents differ:\n got %v\nwant %v", got, want)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []store.BatchOp{
		insOp(1, 2, 3),
		delOp(2),
		{Triples: []rdf.Triple{{
			S: rdf.Term{Kind: rdf.KindBlank, Value: "b0"},
			P: rdf.NewIRI("http://x/label"),
			O: rdf.NewLangLiteral("naïve — ünïcode", "en"),
		}}},
	}
	rec := encodeRecord(42, ops)
	gen, got, err := decodePayload(rec[recordHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 {
		t.Fatalf("gen = %d", gen)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("ops round-trip:\n got %+v\nwant %+v", got, ops)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	var all []rdf.Triple
	for i := 0; i < 200; i++ {
		all = append(all, tr(i))
	}
	st.AddAll(all)
	st.Remove(tr(7)) // orphan dictionary entries must round-trip too
	sn := st.Snapshot()

	if err := writeSegment(OSFS(), dir, sn); err != nil {
		t.Fatal(err)
	}
	got, err := readSegment(OSFS(), dir, sn.Gen())
	if err != nil {
		t.Fatal(err)
	}
	sameContents(t, got, st.Snapshot().Triples())
}

func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	o := Options{}

	// Fresh dir: bootstrap from an initial store.
	rec, err := Recover(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Exists {
		t.Fatal("fresh dir claims durable state")
	}
	st := store.New()
	st.AddAll([]rdf.Triple{tr(0), tr(1)})
	m, err := rec.Open(st)
	if err != nil {
		t.Fatal(err)
	}

	c1, err := m.Apply(context.Background(), []store.BatchOp{insOp(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Apply(context.Background(), []store.BatchOp{delOp(0), insOp(4)})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Gen != c1.Gen+1 {
		t.Fatalf("generations not consecutive: %d then %d", c1.Gen, c2.Gen)
	}
	if g := st.Snapshot().Gen(); g != c2.Gen {
		t.Fatalf("published gen %d != committed gen %d", g, c2.Gen)
	}
	want := st.Snapshot().Triples()
	wantGen := st.Snapshot().Gen()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery must reproduce contents and generation.
	rec2, err := Recover(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Exists {
		t.Fatal("no durable state after Close")
	}
	if rec2.Gen != wantGen {
		t.Fatalf("recovered gen %d, want %d", rec2.Gen, wantGen)
	}
	sameContents(t, rec2.Triples, want)

	st2 := store.New()
	st2.AddAll(rec2.Triples)
	m2, err := rec2.Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if g := st2.Snapshot().Gen(); g != wantGen {
		t.Fatalf("restored store gen %d, want %d", g, wantGen)
	}
	// Writes continue above the restored generation.
	c3, err := m2.Apply(context.Background(), []store.BatchOp{insOp(5)})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Gen != wantGen+1 {
		t.Fatalf("post-restart gen %d, want %d", c3.Gen, wantGen+1)
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	// A kill -9 style stop: no Close, recovery replays the log tail.
	dir := t.TempDir()
	rec, err := Recover(dir, Options{CompactBytes: -1}) // no auto compaction
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddAll([]rdf.Triple{tr(0)})
	m, err := rec.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := m.Apply(context.Background(), []store.BatchOp{insOp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Snapshot().Triples()
	wantGen := st.Snapshot().Gen()
	// Abandon m without Close: the OS file stays as-is on disk.

	rec2, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Records != 5 {
		t.Fatalf("replayed %d records, want 5", rec2.Records)
	}
	if rec2.Gen != wantGen {
		t.Fatalf("recovered gen %d, want %d", rec2.Gen, wantGen)
	}
	sameContents(t, rec2.Triples, want)
}

func TestRecoveryTornTailIsCleanEnd(t *testing.T) {
	dir := t.TempDir()
	rec, _ := Recover(dir, Options{CompactBytes: -1})
	st := store.New()
	st.AddAll([]rdf.Triple{tr(0)})
	m, err := rec.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(context.Background(), []store.BatchOp{insOp(1)}); err != nil {
		t.Fatal(err)
	}
	afterOne := st.Snapshot().Triples()
	genOne := st.Snapshot().Gen()
	if _, err := m.Apply(context.Background(), []store.BatchOp{insOp(2)}); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop bytes off the end of the log.
	path := dir + "/" + LogName
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec2, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Gen != genOne {
		t.Fatalf("recovered gen %d, want %d (the last whole batch)", rec2.Gen, genOne)
	}
	sameContents(t, rec2.Triples, afterOne)

	// Reopening truncates the torn tail and appends cleanly after it.
	st2 := store.New()
	st2.AddAll(rec2.Triples)
	m2, err := rec2.Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Apply(context.Background(), []store.BatchOp{insOp(9)}); err != nil {
		t.Fatal(err)
	}
	rec3, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameContents(t, rec3.Triples, st2.Snapshot().Triples())
}

func TestCompactionTruncatesLogAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	rec, _ := Recover(dir, Options{CompactBytes: -1})
	st := store.New()
	st.AddAll([]rdf.Triple{tr(0)})
	m, err := rec.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := m.Apply(context.Background(), []store.BatchOp{insOp(i), delOp(i - 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if sz := m.log.size(); sz != int64(len(logMagic)) {
		t.Fatalf("log size after compaction = %d", sz)
	}
	// More writes after the compaction land in the (now short) log.
	if _, err := m.Apply(context.Background(), []store.BatchOp{insOp(11)}); err != nil {
		t.Fatal(err)
	}
	want := st.Snapshot().Triples()
	wantGen := st.Snapshot().Gen()

	rec2, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Gen != wantGen {
		t.Fatalf("recovered gen %d, want %d", rec2.Gen, wantGen)
	}
	if rec2.Records != 1 {
		t.Fatalf("replayed %d records, want 1 (post-compaction tail)", rec2.Records)
	}
	sameContents(t, rec2.Triples, want)
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	rec, _ := Recover(dir, Options{CompactBytes: 256})
	st := store.New()
	m, err := rec.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 50; i++ {
		if _, err := m.Apply(context.Background(), []store.BatchOp{insOp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// With a 256-byte threshold the log must have been compacted many
	// times and stay short.
	if sz := m.log.size(); sz > 1024 {
		t.Fatalf("auto-compaction did not bound the log: %d bytes", sz)
	}
	gens := listSegments(OSFS(), dir)
	if len(gens) > 2 {
		t.Fatalf("segment retention kept %d segments: %v", len(gens), gens)
	}
}

func TestApplyRespectsContext(t *testing.T) {
	dir := t.TempDir()
	rec, _ := Recover(dir, Options{})
	st := store.New()
	m, err := rec.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Apply(ctx, []store.BatchOp{insOp(1)}); err == nil {
		t.Fatal("Apply with cancelled context succeeded")
	}
	if st.Snapshot().Len() != 0 {
		t.Fatal("cancelled Apply mutated the store")
	}
	if g := m.Gen(); g != 0 {
		t.Fatalf("cancelled Apply consumed generation %d", g)
	}
}
