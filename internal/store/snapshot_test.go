package store

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	orig := pamukGraph().Snapshot()
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := st.Snapshot()
	if loaded.Len() != orig.Len() {
		t.Fatalf("len = %d, want %d", loaded.Len(), orig.Len())
	}
	for _, tr := range orig.Triples() {
		if !loaded.Has(tr) {
			t.Errorf("missing triple after round trip: %v", tr)
		}
	}
	// Matching still works on the loaded store.
	got := loaded.Subjects(rdf.Ont("author"), rdf.Res("Orhan_Pamuk"))
	if len(got) != 2 {
		t.Errorf("Subjects on loaded store = %v", got)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Snapshot().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Snapshot().Len() != 0 {
		t.Errorf("len = %d", loaded.Snapshot().Len())
	}
}

func TestSnapshotAllTermKinds(t *testing.T) {
	st := New()
	st.Add(rdf.Triple{S: rdf.NewBlank("b0"), P: rdf.Ont("p"), O: rdf.NewLangLiteral("hi", "en")})
	st.Add(rdf.Triple{S: rdf.Res("X"), P: rdf.Ont("q"), O: rdf.NewTypedLiteral("5", rdf.XSDInteger)})
	st.Add(rdf.Triple{S: rdf.Res("X"), P: rdf.Ont("r"), O: rdf.NewLiteral("plain")})
	var buf bytes.Buffer
	sn := st.Snapshot()
	if err := sn.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sn.Triples() {
		if !loaded.Snapshot().Has(tr) {
			t.Errorf("missing %v", tr)
		}
	}
}

func TestSnapshotCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := pamukGraph().Snapshot().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte("NOTMAGIC"), data[8:]...)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}

	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(data)-1; cut += 7 {
		if _, err := ReadSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	// Corrupt a term ID to an out-of-range value.
	if len(data) > 20 {
		mangled := append([]byte(nil), data...)
		// Flip bytes near the end (inside the triple ID section).
		for i := len(mangled) - 4; i < len(mangled); i++ {
			mangled[i] = 0xFF
		}
		if _, err := ReadSnapshot(bytes.NewReader(mangled)); err == nil {
			t.Error("out-of-range term ID accepted")
		}
	}
}

func TestSnapshotEmptyInput(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
}
