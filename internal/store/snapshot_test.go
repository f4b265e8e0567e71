package store

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// dump is what a WAL segment holds of a snapshot: the dictionary in ID
// order and the ID triples in SPO order.
func dump(sn *Snapshot) ([]rdf.Term, [][3]ID) {
	var ids [][3]ID
	sn.ForEachMatchIDs([3]ID{}, func(s, p, o ID) bool {
		ids = append(ids, [3]ID{s, p, o})
		return true
	})
	return sn.TermsView(), ids
}

// assertSameSnapshot: same generation, same dictionary (so every ID),
// same ID triples.
func assertSameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Gen() != want.Gen() {
		t.Errorf("gen = %d, want %d", got.Gen(), want.Gen())
	}
	gt, gi := dump(got)
	wt, wi := dump(want)
	if !reflect.DeepEqual(gt, wt) {
		t.Errorf("dictionary differs:\n got %v\nwant %v", gt, wt)
	}
	if !reflect.DeepEqual(gi, wi) {
		t.Errorf("ID triples differ:\n got %v\nwant %v", gi, wi)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := pamukGraph()
	remove(s, rdf.Triple{S: rdf.Res("Michael_Jordan"), P: rdf.Ont("height"), O: rdf.NewDouble(1.98)}) // orphans its three terms
	orig := s.Snapshot()
	terms, ids := dump(orig)
	st, err := Load(orig.Gen(), terms, ids)
	if err != nil {
		t.Fatal(err)
	}
	loaded := st.Snapshot()
	assertSameSnapshot(t, loaded, orig)
	// Matching still works on the loaded store.
	got := loaded.Subjects(rdf.Ont("author"), rdf.Res("Orhan_Pamuk"))
	if len(got) != 2 {
		t.Errorf("Subjects on loaded store = %v", got)
	}
	// Writes continue above the loaded generation.
	st.add(rdf.Triple{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("B")})
	if g := st.Snapshot().Gen(); g != orig.Gen()+1 {
		t.Errorf("first write after Load published gen %d, want %d", g, orig.Gen()+1)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := New()
	terms, ids := dump(s.Snapshot())
	loaded, err := Load(0, terms, ids)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, loaded.Snapshot(), s.Snapshot())
}

func TestSnapshotAllTermKinds(t *testing.T) {
	st := New()
	st.AddAll([]rdf.Triple{
		{S: rdf.NewBlank("b0"), P: rdf.Ont("p"), O: rdf.NewLangLiteral("hi", "en")},
		{S: rdf.Res("X"), P: rdf.Ont("q"), O: rdf.NewTypedLiteral("5", rdf.XSDInteger)},
		{S: rdf.Res("X"), P: rdf.Ont("r"), O: rdf.NewLiteral("plain")},
	})
	sn := st.Snapshot()
	terms, ids := dump(sn)
	loaded, err := Load(sn.Gen(), terms, ids)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, loaded.Snapshot(), sn)
	for _, tr := range sn.Triples() {
		if !loaded.Snapshot().Has(tr) {
			t.Errorf("missing %v", tr)
		}
	}
}

// TestSnapshotCorruption: Load takes the dictionary and the triples as
// the IDs they claim to be, so anything that would make an ID mean
// something else is refused. Byte-level corruption is the WAL's to
// catch (internal/wal's segment and fault tests).
func TestSnapshotCorruption(t *testing.T) {
	terms, ids := dump(pamukGraph().Snapshot())
	n := ID(len(terms))
	dupTerms := append(append([]rdf.Term(nil), terms...), terms[3])
	plus := func(extra [3]ID) [][3]ID { return append(append([][3]ID(nil), ids...), extra) }
	for name, c := range map[string]struct {
		gen   uint64
		terms []rdf.Term
		ids   [][3]ID
		want  string
	}{
		"ID 0":                {1, terms, plus([3]ID{0, 1, 2}), "outside"},
		"ID past dictionary":  {1, terms, plus([3]ID{1, 2, n + 1}), "outside"},
		"duplicate term":      {1, dupTerms, ids, "duplicate terms"},
		"duplicate triple":    {1, terms, plus(ids[2]), "duplicate"},
		"contents at gen 0":   {0, terms, ids, "generation 0"},
		"dictionary at gen 0": {0, terms, nil, "generation 0"},
	} {
		if _, err := Load(c.gen, c.terms, c.ids); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, c.want)
		}
	}
}

func TestSnapshotEmptyInput(t *testing.T) {
	for _, gen := range []uint64{0, 7} {
		st, err := Load(gen, nil, nil)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if sn := st.Snapshot(); sn.Len() != 0 || sn.TermCount() != 0 || sn.Gen() != gen {
			t.Errorf("Load(%d, nil, nil) = %d triples, %d terms at gen %d", gen, sn.Len(), sn.TermCount(), sn.Gen())
		}
	}
}
