package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func pamukGraph() *Store {
	s := New()
	s.AddAll([]rdf.Triple{
		{S: rdf.Res("Orhan_Pamuk"), P: rdf.Type(), O: rdf.Ont("Writer")},
		{S: rdf.Res("Snow"), P: rdf.Type(), O: rdf.Ont("Book")},
		{S: rdf.Res("Snow"), P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")},
		{S: rdf.Res("My_Name_Is_Red"), P: rdf.Type(), O: rdf.Ont("Book")},
		{S: rdf.Res("My_Name_Is_Red"), P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")},
		{S: rdf.Res("Michael_Jordan"), P: rdf.Ont("height"), O: rdf.NewDouble(1.98)},
	})
	return s
}

// TestStoreReadSurface pins *Store to a writer: Snapshot, the writers,
// and the four read delegates cmd/qaload (a module of its own) compiles
// against. Any other read belongs on *Snapshot, where it sees one
// generation for as long as the caller holds it.
func TestStoreReadSurface(t *testing.T) {
	want := []string{
		"Snapshot",
		"Add", "AddAll", "Batch", "ApplyBatch", "SetGen",
		"Len", "TermCount", "Triples", "Subjects",
	}
	var got []string
	typ := reflect.TypeOf((*Store)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("*Store methods = %v, want %v: reads belong on *Snapshot (pin one with Store.Snapshot), not on the Store", got, want)
	}
}

func TestAddAndLen(t *testing.T) {
	s := New()
	tr := rdf.Triple{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("B")}
	if !s.Add(tr) {
		t.Error("first Add should report new")
	}
	if s.Add(tr) {
		t.Error("duplicate Add should report false")
	}
	sn := s.Snapshot()
	if sn.Len() != 1 {
		t.Errorf("Len = %d, want 1", sn.Len())
	}
	if !sn.Has(tr) {
		t.Error("Has should find added triple")
	}
	if sn.Has(rdf.Triple{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("C")}) {
		t.Error("Has found absent triple")
	}
}

// TestAddRejectsVariables: a triple with a variable or zero term is not
// data. Add, AddAll and ApplyBatch skip it whole: nothing is added,
// none of its terms is interned and the generation does not move.
func TestAddRejectsVariables(t *testing.T) {
	for _, tr := range []rdf.Triple{
		{S: rdf.NewVar("x"), P: rdf.Ont("p"), O: rdf.Res("B")},
		{S: rdf.Term{}, P: rdf.Ont("p"), O: rdf.Res("B")},
		{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Term{}},
	} {
		s := New()
		if s.Add(tr) {
			t.Errorf("Add accepted %v", tr)
		}
		if n := s.AddAll([]rdf.Triple{tr}); n != 0 {
			t.Errorf("AddAll added %d of [%v]", n, tr)
		}
		if added, _ := s.ApplyBatch([]BatchOp{{Triples: []rdf.Triple{tr}}}); added != 0 {
			t.Errorf("ApplyBatch added %d of [%v]", added, tr)
		}
		if sn := s.Snapshot(); sn.Len() != 0 || sn.TermCount() != 0 || sn.Gen() != 0 {
			t.Errorf("after adding %v: %d triples, %d terms, generation %d; want the empty store", tr, sn.Len(), sn.TermCount(), sn.Gen())
		}
	}
}

func TestMatchAllPatterns(t *testing.T) {
	s := pamukGraph().Snapshot()
	v := rdf.NewVar("x")

	cases := []struct {
		name string
		pat  rdf.Triple
		want int
	}{
		{"S P O (hit)", rdf.Triple{S: rdf.Res("Snow"), P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")}, 1},
		{"S P O (miss)", rdf.Triple{S: rdf.Res("Snow"), P: rdf.Ont("author"), O: rdf.Res("Nobody")}, 0},
		{"S P ?", rdf.Triple{S: rdf.Res("Snow"), P: rdf.Ont("author"), O: v}, 1},
		{"? P O", rdf.Triple{S: v, P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")}, 2},
		{"S ? O", rdf.Triple{S: rdf.Res("Snow"), P: v, O: rdf.Ont("Book")}, 1},
		{"S ? ?", rdf.Triple{S: rdf.Res("Snow"), P: v, O: v}, 2},
		{"? P ?", rdf.Triple{S: v, P: rdf.Type(), O: v}, 3},
		{"? ? O", rdf.Triple{S: v, P: v, O: rdf.Ont("Book")}, 2},
		{"? ? ?", rdf.Triple{}, 6},
		{"unknown term", rdf.Triple{S: rdf.Res("Missing"), P: v, O: v}, 0},
	}
	for _, c := range cases {
		got := s.Match(c.pat)
		if len(got) != c.want {
			t.Errorf("%s: %d matches, want %d (%v)", c.name, len(got), c.want, got)
		}
		if n := s.EstimateCardinality(c.pat); n != c.want {
			t.Errorf("%s: EstimateCardinality = %d, want %d", c.name, n, c.want)
		}
	}
}

func TestMatchDeterministicOrder(t *testing.T) {
	s := pamukGraph().Snapshot()
	a := s.Match(rdf.Triple{})
	b := s.Match(rdf.Triple{})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForEachMatchEarlyStop(t *testing.T) {
	s := pamukGraph().Snapshot()
	n := 0
	s.ForEachMatch(rdf.Triple{}, func(rdf.Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestSubjectsObjects(t *testing.T) {
	s := pamukGraph().Snapshot()
	subs := s.Subjects(rdf.Ont("author"), rdf.Res("Orhan_Pamuk"))
	if len(subs) != 2 {
		t.Errorf("Subjects = %v, want 2 books", subs)
	}
	objs := s.Objects(rdf.Res("Snow"), rdf.Type())
	if len(objs) != 1 || objs[0] != rdf.Ont("Book") {
		t.Errorf("Objects = %v", objs)
	}
}

func TestEstimateCardinality(t *testing.T) {
	s := pamukGraph().Snapshot()
	v := rdf.NewVar("x")
	if got := s.EstimateCardinality(rdf.Triple{S: v, P: rdf.Type(), O: v}); got != 3 {
		t.Errorf("estimate(?,type,?) = %d, want 3", got)
	}
	if got := s.EstimateCardinality(rdf.Triple{S: v, P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")}); got != 2 {
		t.Errorf("estimate(?,author,Pamuk) = %d, want 2", got)
	}
	if got := s.EstimateCardinality(rdf.Triple{}); got != s.Len() {
		t.Errorf("estimate(?,?,?) = %d, want %d", got, s.Len())
	}
	if got := s.EstimateCardinality(rdf.Triple{S: rdf.Res("Missing")}); got != 0 {
		t.Errorf("estimate with unknown term = %d, want 0", got)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	s := pamukGraph().Snapshot()
	term := rdf.Res("Orhan_Pamuk")
	id, ok := s.Lookup(term)
	if !ok {
		t.Fatal("Lookup failed")
	}
	if got := s.Term(id); got != term {
		t.Errorf("Term(Lookup(x)) = %v, want %v", got, term)
	}
	if got := s.Term(0); !got.IsZero() {
		t.Errorf("Term(0) = %v, want zero", got)
	}
	if got := s.Term(ID(s.TermCount() + 10)); !got.IsZero() {
		t.Errorf("Term(out of range) = %v, want zero", got)
	}
}

// TestLookupHashCollision: two IRIs with one term hash (0xd211299c)
// share a dictionary list, and each resolves to its own ID whether the
// two are interned in one batch or across two. Deleting a triple of
// one leaves the other's.
func TestLookupHashCollision(t *testing.T) {
	x, y := rdf.NewIRI("http://example.org/ab45599c"), rdf.NewIRI("http://example.org/80ab8f52")
	if termHash(x) != termHash(y) {
		t.Fatalf("hashes %#x and %#x differ", termHash(x), termHash(y))
	}
	p := rdf.Ont("p")
	for _, batches := range [][][]rdf.Triple{
		{{{S: x, P: p, O: x}, {S: y, P: p, O: y}}},
		{{{S: x, P: p, O: x}}, {{S: y, P: p, O: y}}},
	} {
		s := New()
		for _, b := range batches {
			s.AddAll(b)
		}
		sn := s.Snapshot()
		xid, xok := sn.Lookup(x)
		yid, yok := sn.Lookup(y)
		if !xok || !yok || xid == yid || sn.Term(xid) != x || sn.Term(yid) != y {
			t.Fatalf("%d batches: Lookup = %d %v and %d %v", len(batches), xid, xok, yid, yok)
		}
		if _, removed := s.ApplyBatch([]BatchOp{{Delete: true, Triples: []rdf.Triple{{S: x, P: p, O: x}}}}); removed != 1 {
			t.Fatalf("%d batches: deleting x's triple removed %d", len(batches), removed)
		}
		sn = s.Snapshot()
		if sn.Has(rdf.Triple{S: x, P: p, O: x}) || !sn.Has(rdf.Triple{S: y, P: p, O: y}) || sn.Len() != 1 {
			t.Errorf("%d batches: after deleting x's triple, %v", len(batches), sn.Triples())
		}
	}
}

func TestConcurrentReadersWhileWriting(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(rdf.Triple{
					S: rdf.Res(fmt.Sprintf("S%d_%d", w, i)),
					P: rdf.Ont("p"),
					O: rdf.NewInteger(int64(i)),
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Snapshot().EstimateCardinality(rdf.Triple{P: rdf.Ont("p")})
				s.Snapshot().Len()
			}
		}()
	}
	wg.Wait()
	if s.Snapshot().Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Snapshot().Len())
	}
}

// Property: after inserting a random set of triples, Match(?,?,?) returns
// exactly the distinct set, and Has agrees with membership.
func TestStoreProperties(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		want := map[rdf.Triple]bool{}
		for i := 0; i < int(n%64)+1; i++ {
			tr := rdf.Triple{
				S: rdf.Res(fmt.Sprintf("S%d", rng.Intn(8))),
				P: rdf.Ont(fmt.Sprintf("p%d", rng.Intn(4))),
				O: rdf.NewInteger(int64(rng.Intn(8))),
			}
			want[tr] = true
			s.Add(tr)
		}
		sn := s.Snapshot()
		if sn.Len() != len(want) {
			return false
		}
		got := sn.Match(rdf.Triple{})
		if len(got) != len(want) {
			return false
		}
		for _, tr := range got {
			if !want[tr] {
				return false
			}
			if !sn.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every Match pattern projection is consistent with the full scan.
func TestMatchConsistencyProperty(t *testing.T) {
	s := pamukGraph().Snapshot()
	all := s.Match(rdf.Triple{})
	for _, tr := range all {
		v := rdf.NewVar("v")
		pats := []rdf.Triple{
			{S: tr.S, P: tr.P, O: v},
			{S: v, P: tr.P, O: tr.O},
			{S: tr.S, P: v, O: tr.O},
			{S: tr.S, P: v, O: v},
			{S: v, P: tr.P, O: v},
			{S: v, P: v, O: tr.O},
		}
		for _, pat := range pats {
			found := false
			for _, m := range s.Match(pat) {
				if m == tr {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("triple %v not found via pattern %v", tr, pat)
			}
		}
	}
}

// TestBatch: a Batch interns each term once, however often it is asked
// for it — also two terms with one hash, in either order — adds
// triples by ID as AddAll adds them by term, skips a triple with a zero
// ID, and publishes once; a batch that changes nothing publishes
// nothing.
func TestBatch(t *testing.T) {
	x, y := rdf.NewIRI("http://example.org/ab45599c"), rdf.NewIRI("http://example.org/80ab8f52")
	p := rdf.Ont("p")
	st := New()
	added := st.Batch(2, func(b *Batch) {
		ids := []ID{b.Intern(x), b.Intern(p), b.Intern(y), b.Intern(x), b.Intern(y), b.Intern(p)}
		if want := []ID{1, 2, 3, 1, 3, 2}; !reflect.DeepEqual(ids, want) {
			t.Errorf("Intern IDs = %v, want %v", ids, want)
		}
		if id := b.Intern(rdf.NewVar("v")); id != 0 {
			t.Errorf("Intern of a variable = %d, want 0", id)
		}
		b.Add(1, 2, 3)
		b.Add(3, 2, 1)
		b.Add(1, 2, 3)
		b.Add(0, 2, 3)
	})
	ref := New()
	ref.AddAll([]rdf.Triple{{S: x, P: p, O: y}, {S: y, P: p, O: x}})
	sn, want := st.Snapshot(), ref.Snapshot()
	if added != 2 || sn.Gen() != 1 || !reflect.DeepEqual(sn.TermsView(), want.TermsView()) || !reflect.DeepEqual(sn.Triples(), want.Triples()) {
		t.Fatalf("Batch added %d at generation %d: %v over %v; AddAll: %v over %v",
			added, sn.Gen(), sn.Triples(), sn.TermsView(), want.Triples(), want.TermsView())
	}
	if added := st.Batch(0, func(b *Batch) { b.Intern(y); b.Add(1, 2, 3) }); added != 0 || st.Snapshot() != sn {
		t.Errorf("a batch that changed nothing added %d and published generation %d", added, st.Snapshot().Gen())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add of an ID outside the dictionary did not panic")
			}
		}()
		st.Batch(0, func(b *Batch) { b.Add(1, 2, 4) })
	}()
	if st.Snapshot() != sn {
		t.Error("a batch that panicked published")
	}
}
