package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
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

// sameSnapshot: same generation, same dictionary — so every ID, orphans
// included — and the same triples.
func sameSnapshot(t *testing.T, got, want *store.Snapshot) {
	t.Helper()
	if got.Gen() != want.Gen() {
		t.Fatalf("gen = %d, want %d", got.Gen(), want.Gen())
	}
	if !reflect.DeepEqual(got.TermsView(), want.TermsView()) {
		t.Fatalf("dictionary differs:\n got %v\nwant %v", got.TermsView(), want.TermsView())
	}
	if !reflect.DeepEqual(got.Triples(), want.Triples()) {
		t.Fatalf("triples differ:\n got %v\nwant %v", got.Triples(), want.Triples())
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
	st.ApplyBatch([]store.BatchOp{delOp(7)}) // orphan dictionary entries must round-trip too
	sn := st.Snapshot()

	if err := writeSegment(OSFS(), dir, sn); err != nil {
		t.Fatal(err)
	}
	got, err := readSegment(OSFS(), dir, sn.Gen())
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got.Snapshot(), sn)
}

// TestSegmentHugeTripleCount: a segment whose checksum is valid but
// whose payload claims 1<<62 triples is a decode error, not an
// allocation sized by that count (a "makeslice: cap out of range" panic
// that kills the boot), so recovery falls back to the older segment.
func TestSegmentHugeTripleCount(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	st.AddAll([]rdf.Triple{tr(0)})
	old := st.Snapshot()
	if err := writeSegment(OSFS(), dir, old); err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint64(nil, old.Gen()+1)
	payload = binary.AppendUvarint(payload, 0)     // no terms
	payload = binary.AppendUvarint(payload, 1<<62) // and an impossible triple count
	if _, err := decodeSegmentPayload(payload); err == nil {
		t.Fatal("payload with 1<<62 triples decoded")
	}
	file := append([]byte(nil), segMagic...)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(payload, castagnoli))
	file = append(file, payload...)
	if err := os.WriteFile(join(dir, segmentName(old.Gen()+1)), file, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SegmentGen != old.Gen() {
		t.Fatalf("recovered from segment %d, want the older %d", rec.SegmentGen, old.Gen())
	}
	sameSnapshot(t, rec.Store.Snapshot(), old)
}

// TestSegmentFixtureLoads pins the segment format (QASEG001):
// testdata/qaseg001 holds the segment an earlier build of this package
// wrote for the history below — every term kind, and a subject orphaned
// by a delete. It must recover into the store the same history builds
// today, ID for ID, and re-encode to the same bytes.
func TestSegmentFixtureLoads(t *testing.T) {
	p := rdf.NewIRI("http://x/p")
	s1, s2 := rdf.NewIRI("http://x/s1"), rdf.NewIRI("http://x/s2")
	live, err := Recover(t.TempDir(), Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddAll([]rdf.Triple{
		{S: s1, P: p, O: rdf.NewLiteral("plain")},
		{S: s1, P: rdf.NewIRI("http://x/label"), O: rdf.NewLangLiteral("naïve", "en")},
		{S: rdf.NewBlank("b0"), P: p, O: rdf.NewTypedLiteral("5", rdf.XSDInteger)},
		{S: s2, P: p, O: s1},
	})
	m, err := live.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, ops := range [][]store.BatchOp{
		{{Triples: []rdf.Triple{{S: rdf.NewIRI("http://x/s3"), P: p, O: rdf.NewTypedLiteral("3", rdf.XSDInteger)}}}},
		{
			{Delete: true, Triples: []rdf.Triple{{S: s2, P: p, O: s1}}},
			{Triples: []rdf.Triple{{S: rdf.NewIRI("http://x/s4"), P: rdf.NewIRI("http://x/q"), O: rdf.NewBlank("b1")}}},
		},
	} {
		if _, err := m.Apply(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}

	dir := filepath.Join("testdata", "qaseg001")
	rec, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Store == nil || rec.SegmentGen != 3 || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want segment 3 and no log", rec)
	}
	sameSnapshot(t, rec.Store.Snapshot(), st.Snapshot())
	want, err := os.ReadFile(filepath.Join(dir, segmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := writeSegment(OSFS(), out, st.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(out, segmentName(3))); !bytes.Equal(got, want) {
		t.Errorf("segment bytes changed:\n got %x\nwant %x", got, want)
	}
}

func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	o := Options{}

	// Fresh dir: bootstrap from an initial store.
	rec, err := Recover(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Store != nil {
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
	want := st.Snapshot()
	wantGen := want.Gen()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery must reproduce contents and generation.
	rec2, err := Recover(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Store == nil {
		t.Fatal("no durable state after Close")
	}
	if rec2.Gen != wantGen {
		t.Fatalf("recovered gen %d, want %d", rec2.Gen, wantGen)
	}
	sameSnapshot(t, rec2.Store.Snapshot(), want)

	st2 := rec2.Store
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
	want := st.Snapshot()
	wantGen := want.Gen()
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
	sameSnapshot(t, rec2.Store.Snapshot(), want)
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
	afterOne := st.Snapshot()
	genOne := afterOne.Gen()
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
	sameSnapshot(t, rec2.Store.Snapshot(), afterOne)

	// Reopening truncates the torn tail and appends cleanly after it.
	st2 := rec2.Store
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
	sameSnapshot(t, rec3.Store.Snapshot(), st2.Snapshot())
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
	want := st.Snapshot()
	wantGen := want.Gen()

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
	sameSnapshot(t, rec2.Store.Snapshot(), want)
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
