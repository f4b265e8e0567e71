package kb

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestBuildDeterministic(t *testing.T) {
	a := Build(DefaultConfig()).Store.Snapshot()
	b := Build(DefaultConfig()).Store.Snapshot()
	if a.Len() != b.Len() {
		t.Errorf("non-deterministic build: %d vs %d triples", a.Len(), b.Len())
	}
}

func TestPaperExampleFacts(t *testing.T) {
	k := Default()
	st := k.Store.Snapshot()

	// Figure 1 / §2.3: Orhan Pamuk wrote books.
	books := st.Subjects(rdf.Ont("author"), rdf.Res("Orhan_Pamuk"))
	if len(books) != 5 {
		t.Errorf("Pamuk authored %d books, want 5: %v", len(books), books)
	}
	// §2.2.2: Michael Jordan height 1.98.
	hs := st.Objects(rdf.Res("Michael_Jordan"), rdf.Ont("height"))
	if len(hs) != 1 || hs[0].Value != "1.98" {
		t.Errorf("Jordan height = %v", hs)
	}
	// §2.2.3: Lincoln died in Washington.
	if len(st.Match(rdf.Triple{S: rdf.Res("Abraham_Lincoln"), P: rdf.Ont("deathPlace"), O: rdf.Res("Washington,_D.C.")})) == 0 {
		t.Error("Lincoln deathPlace missing")
	}
	// §2.2.3: Michael Jackson born in Gary, Indiana.
	if len(st.Match(rdf.Triple{S: rdf.Res("Michael_Jackson"), P: rdf.Ont("birthPlace"), O: rdf.Res("Gary,_Indiana")})) == 0 {
		t.Error("Jackson birthPlace missing")
	}
	// §5: Frank Herbert has a deathDate (he is not alive).
	dd := st.Objects(rdf.Res("Frank_Herbert"), rdf.Ont("deathDate"))
	if len(dd) != 1 || dd[0].ValueKind() != rdf.ValueDate {
		t.Errorf("Herbert deathDate = %v", dd)
	}
	// Intro: Italy population 59,464,644 and USA leaderName Obama.
	pop := st.Objects(rdf.Res("Italy"), rdf.Ont("populationTotal"))
	if len(pop) != 1 || pop[0].Value != "59464644" {
		t.Errorf("Italy population = %v", pop)
	}
	if len(st.Match(rdf.Triple{S: rdf.Res("United_States"), P: rdf.Ont("leaderName"), O: rdf.Res("Barack_Obama")})) == 0 {
		t.Error("USA leaderName Obama missing")
	}
}

// isA reports whether the materialised (e, rdf:type, class) triple is
// present: the ground probe that sparql.Session.InstanceOf's type-set
// read, by ID, must agree with.
func isA(sn *store.Snapshot, e, class rdf.Term) bool {
	return len(sn.Match(rdf.Triple{S: e, P: rdf.Type(), O: class})) > 0
}

func TestOntologyShape(t *testing.T) {
	sn := Default().Store.Snapshot()
	// Writer ⊂ Artist ⊂ Person ⊂ Agent.
	if !isA(sn, rdf.Res("Orhan_Pamuk"), rdf.Ont("Person")) {
		t.Error("Pamuk should be a Person via the materialised closure")
	}
	if !isA(sn, rdf.Res("Ankara"), rdf.Ont("Place")) {
		t.Error("Ankara should be a Place")
	}
	if !isA(sn, rdf.Res("Intel"), rdf.Ont("Organisation")) {
		t.Error("Intel should be an Organisation")
	}
	if isA(sn, rdf.Res("Ankara"), rdf.Ont("Person")) {
		t.Error("Ankara should not be a Person")
	}
}

func TestClassAndPropertyLookups(t *testing.T) {
	k := Default()
	c, ok := k.ClassByLocal("Book")
	if !ok || c.Label != "book" {
		t.Errorf("ClassByLocal(Book) = %+v, %v", c, ok)
	}
	p, ok := k.PropertyByLocal("height")
	if !ok || p.Object {
		t.Errorf("height should be a data property: %+v, %v", p, ok)
	}
	p2, ok := k.PropertyByLocal("writer")
	if !ok || !p2.Object {
		t.Errorf("writer should be an object property: %+v, %v", p2, ok)
	}
	if _, ok := k.PropertyByLocal("nonexistent"); ok {
		t.Error("nonexistent property lookup should fail")
	}
	if len(k.Properties()) != len(k.ObjectProperties)+len(k.DataProperties) {
		t.Error("Properties() should concatenate both lists")
	}
}

// withLabel returns the subjects whose English rdfs:label is label.
func withLabel(sn *store.Snapshot, label string) []rdf.Term {
	return sn.Subjects(rdf.Label(), rdf.NewLangLiteral(label, "en"))
}

func TestEntitiesWithLabel(t *testing.T) {
	sn := Default().Store.Snapshot()
	es := withLabel(sn, "Orhan Pamuk")
	if len(es) != 1 || es[0] != rdf.Res("Orhan_Pamuk") {
		t.Errorf("label Orhan Pamuk = %v", es)
	}
	// Ambiguous label: two Michael Jordans, two Victorias.
	mj := withLabel(sn, "Michael Jordan")
	if len(mj) != 2 {
		t.Errorf("Michael Jordan candidates = %v, want 2", mj)
	}
	vic := withLabel(sn, "Victoria")
	if len(vic) != 2 {
		t.Errorf("Victoria candidates = %v, want 2", vic)
	}
	if len(withLabel(sn, "No Such Entity")) != 0 {
		t.Error("unknown label should return nothing")
	}
}

func TestLabelOf(t *testing.T) {
	k := Default()
	if got := k.LabelOf(rdf.Res("Orhan_Pamuk")); got != "Orhan Pamuk" {
		t.Errorf("LabelOf = %q", got)
	}
	// Fallback for unlabeled terms.
	if got := k.LabelOf(rdf.Res("Never_Asserted_Entity")); got != "Never Asserted Entity" {
		t.Errorf("LabelOf fallback = %q", got)
	}
}

func TestPageLinksExist(t *testing.T) {
	sn := Default().Store.Snapshot()
	links := sn.Objects(rdf.Res("Orhan_Pamuk"), rdf.NewIRI(rdf.IRIPageLink))
	if len(links) == 0 {
		t.Error("Pamuk should have page links")
	}
	// Bidirectional.
	back := sn.Objects(rdf.Res("Istanbul"), rdf.NewIRI(rdf.IRIPageLink))
	found := false
	for _, l := range back {
		if l == rdf.Res("Orhan_Pamuk") {
			found = true
		}
	}
	if !found {
		t.Error("page links should be bidirectional")
	}
}

func TestSyntheticScaleOut(t *testing.T) {
	small := Build(Config{Seed: 1}).Store.Snapshot()
	big := Build(Config{Seed: 1, SyntheticPersons: 100, SyntheticCities: 20, SyntheticBooks: 50}).Store.Snapshot()
	if big.Len() <= small.Len() {
		t.Errorf("synthetic config should grow the store: %d vs %d", big.Len(), small.Len())
	}
	// Synthetic entities typed correctly.
	ppl := big.Subjects(rdf.Type(), rdf.Ont("Person"))
	if len(ppl) < 100 {
		t.Errorf("expected >= 100 persons, got %d", len(ppl))
	}
}

func TestCorpusGeneration(t *testing.T) {
	k := Default()
	corpus := k.Corpus(DefaultCorpusConfig())
	if len(corpus) < 500 {
		t.Fatalf("corpus too small: %d sentences", len(corpus))
	}
	for i, s := range corpus {
		if s.Text == "" {
			t.Fatalf("sentence %d empty", i)
		}
		if s.Text[s.SubjStart:s.SubjEnd] != k.LabelOf(s.Subject) {
			t.Fatalf("sentence %d: subject span mismatch: %q vs %q in %q",
				i, s.Text[s.SubjStart:s.SubjEnd], k.LabelOf(s.Subject), s.Text)
		}
		if s.Text[s.ObjStart:s.ObjEnd] != k.LabelOf(s.Object) {
			t.Fatalf("sentence %d: object span mismatch in %q", i, s.Text)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	k := Default()
	a := k.Corpus(DefaultCorpusConfig())
	b := k.Corpus(DefaultCorpusConfig())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("sentence %d differs: %q vs %q", i, a[i].Text, b[i].Text)
		}
	}
}

func TestCorpusContainsExpectedPhrasings(t *testing.T) {
	k := Default()
	corpus := k.Corpus(DefaultCorpusConfig())
	var sawBorn, sawDied, sawWrote bool
	for _, s := range corpus {
		if strings.Contains(s.Text, "was born in") {
			sawBorn = true
		}
		if strings.Contains(s.Text, "died in") || strings.Contains(s.Text, "died at") {
			sawDied = true
		}
		if strings.Contains(s.Text, "wrote") {
			sawWrote = true
		}
	}
	if !sawBorn || !sawDied || !sawWrote {
		t.Errorf("corpus phrasings missing: born=%v died=%v wrote=%v", sawBorn, sawDied, sawWrote)
	}
}

func TestCorpusNoiseInjectsCrossRelationPatterns(t *testing.T) {
	k := Default()
	sn := k.Store.Snapshot()
	noisy := k.Corpus(CorpusConfig{Seed: 7, NoiseRate: 0.5, SentencesPerFact: 3})
	// With noise, some deathPlace facts verbalise as "born in"; detect a
	// sentence whose subject has the object as deathPlace but text says
	// born.
	found := false
	for _, s := range noisy {
		if !strings.Contains(s.Text, "born") {
			continue
		}
		if len(sn.Match(rdf.Triple{S: s.Subject, P: rdf.Ont("deathPlace"), O: s.Object})) > 0 &&
			len(sn.Match(rdf.Triple{S: s.Subject, P: rdf.Ont("birthPlace"), O: s.Object})) == 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("high noise rate should produce 'born in' sentences for deathPlace facts (the PATTY noise)")
	}
}

// classGraph is a store of rdfs:subClassOf edges only.
func classGraph() *store.Store {
	s := store.New()
	sub := func(a, b string) rdf.Triple {
		return rdf.Triple{S: rdf.Ont(a), P: rdf.SubClassOf(), O: rdf.Ont(b)}
	}
	s.AddAll([]rdf.Triple{
		sub("Writer", "Artist"),
		sub("Artist", "Person"),
		sub("Person", "Agent"),
		sub("Company", "Organisation"),
		sub("Organisation", "Agent"),
		sub("City", "PopulatedPlace"),
		sub("PopulatedPlace", "Place"),
	})
	return s
}

// superClassTerms is superClasses of class c by term, as terms.
func superClassTerms(t *testing.T, st *store.Store, c rdf.Term) []rdf.Term {
	t.Helper()
	sn := st.Snapshot()
	sub, _ := sn.Lookup(rdf.SubClassOf())
	id, ok := sn.Lookup(c)
	if !ok {
		t.Fatalf("%v is not in the store", c)
	}
	var out []rdf.Term
	for _, super := range superClasses(sn, sub, id) {
		out = append(out, sn.Term(super))
	}
	return out
}

func TestSuperClasses(t *testing.T) {
	supers := superClassTerms(t, classGraph(), rdf.Ont("Writer"))
	want := map[rdf.Term]bool{rdf.Ont("Artist"): true, rdf.Ont("Person"): true, rdf.Ont("Agent"): true}
	if len(supers) != len(want) {
		t.Fatalf("superClasses = %v", supers)
	}
	for _, c := range supers {
		if !want[c] {
			t.Errorf("unexpected superclass %v", c)
		}
	}
}

func TestSubClassCycleTolerated(t *testing.T) {
	s := store.New()
	s.AddAll([]rdf.Triple{{S: rdf.Ont("A"), P: rdf.SubClassOf(), O: rdf.Ont("B")}})
	s.AddAll([]rdf.Triple{{S: rdf.Ont("B"), P: rdf.SubClassOf(), O: rdf.Ont("A")}})
	supers := superClassTerms(t, s, rdf.Ont("A"))
	if len(supers) != 1 || supers[0] != rdf.Ont("B") {
		t.Errorf("cycle: superClasses(A) = %v", supers)
	}
}

// TestMaterializeTypesCycle: a subclass cycle closes like any other
// class graph — each member of it is a type of the entities of the
// other — and the closure is one more write batch.
func TestMaterializeTypesCycle(t *testing.T) {
	st := store.New()
	st.AddAll([]rdf.Triple{
		{S: rdf.Ont("A"), P: rdf.SubClassOf(), O: rdf.Ont("B")},
		{S: rdf.Ont("B"), P: rdf.SubClassOf(), O: rdf.Ont("A")},
		{S: rdf.Res("x"), P: rdf.Type(), O: rdf.Ont("A")},
	})
	k := &KB{Store: st}
	k.materializeTypes()
	sn := st.Snapshot()
	if len(sn.Match(rdf.Triple{S: rdf.Res("x"), P: rdf.Type(), O: rdf.Ont("B")})) == 0 || sn.Len() != 4 || sn.Gen() != 2 {
		t.Errorf("closure over a cycle: %v at generation %d", sn.Triples(), sn.Gen())
	}
}
