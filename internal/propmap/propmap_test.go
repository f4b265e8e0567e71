package propmap

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/patterns"
	"repro/internal/rdf"
	"repro/internal/triplex"
	"repro/internal/wordnet"
)

var (
	once   sync.Once
	mapper *Mapper
)

func testMapper(t *testing.T) *Mapper {
	t.Helper()
	once.Do(func() {
		k := kb.Default()
		corpus := k.Corpus(kb.DefaultCorpusConfig())
		pats := patterns.Mine(k, corpus, patterns.DefaultMinerConfig())
		mapper = New(k, wordnet.Default(), pats, ner.NewLinker(k), DefaultConfig())
	})
	return mapper
}

func mapQuestion(t *testing.T, q string) (*Mapping, error) {
	t.Helper()
	ext, err := triplex.ExtractOpts(q, triplex.Options{})
	if err != nil {
		t.Fatalf("triplex.ExtractOpts(%q, triplex.Options{}): %v", q, err)
	}
	return testMapper(t).Map(ext)
}

func hasProp(cands []PropCandidate, local string) bool {
	for _, c := range cands {
		if c.Property.Term == rdf.Ont(local) {
			return true
		}
	}
	return false
}

// TestWrittenMapsToWriterAndAuthor reproduces §2.2.1's worked example:
// Pt("written") = {dbont:writer, dbont:author}.
func TestWrittenMapsToWriterAndAuthor(t *testing.T) {
	mp, err := mapQuestion(t, "Which book is written by Orhan Pamuk?")
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Triples) != 2 {
		t.Fatalf("mapped triples = %d", len(mp.Triples))
	}
	// Type triple → dbont:Book (§2.2.4).
	if mp.Triples[0].Class != rdf.Ont("Book") {
		t.Errorf("class = %v, want dbont:Book", mp.Triples[0].Class)
	}
	// Main triple: entity + predicate candidates.
	main := mp.Triples[1]
	if main.Object != rdf.Res("Orhan_Pamuk") {
		t.Errorf("object entity = %v, want res:Orhan_Pamuk (§2.2.5)", main.Object)
	}
	if !hasProp(main.Predicates, "writer") || !hasProp(main.Predicates, "author") {
		t.Errorf("Pt(written) = %v, want writer and author", main.Predicates)
	}
}

// TestHeightMapping reproduces §2.2.2: "height" → dbont:height.
func TestHeightMapping(t *testing.T) {
	mp, err := mapQuestion(t, "What is the height of Michael Jordan?")
	if err != nil {
		t.Fatal(err)
	}
	main := mp.Triples[0]
	if main.Subject != rdf.Res("Michael_Jordan") {
		t.Errorf("subject = %v", main.Subject)
	}
	if !hasProp(main.Predicates, "height") {
		t.Errorf("Pt(height) = %v, want dbont:height", main.Predicates)
	}
}

// TestTallMapping reproduces §2.2.2's adjective list: "tall" →
// dbont:height.
func TestTallMapping(t *testing.T) {
	mp, err := mapQuestion(t, "How tall is Michael Jordan?")
	if err != nil {
		t.Fatal(err)
	}
	if !hasProp(mp.Triples[0].Predicates, "height") {
		t.Errorf("Pt(tall) = %v, want dbont:height", mp.Triples[0].Predicates)
	}
}

// TestAdjectiveSource: a candidate found through the adjective list
// ("tall" → height) is labelled adjective, not strsim.
func TestAdjectiveSource(t *testing.T) {
	mp, err := mapQuestion(t, "How tall is Michael Jordan?")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range mp.Triples[0].Predicates {
		if c.Property.Term == rdf.Ont("height") {
			if c.Source != SourceAdjective {
				t.Errorf("dbont:height source = %s, want %s", c.Source, SourceAdjective)
			}
			return
		}
	}
	t.Errorf("Pt(tall) = %v, want dbont:height", mp.Triples[0].Predicates)
}

// TestDieMapping reproduces §2.2.3: "die" → deathPlace ranked first by
// pattern frequency, with birthPlace/residence as weaker candidates.
func TestDieMapping(t *testing.T) {
	mp, err := mapQuestion(t, "Where did Abraham Lincoln die?")
	if err != nil {
		t.Fatal(err)
	}
	preds := mp.Triples[0].Predicates
	if len(preds) == 0 {
		t.Fatal("no candidates for 'die'")
	}
	if preds[0].Property.Term != rdf.Ont("deathPlace") {
		t.Errorf("top candidate = %v, want deathPlace (ranked by frequency)", preds[0])
	}
	if !hasProp(preds, "deathDate") {
		t.Errorf("Pt(die) should include deathDate via nominalisation: %v", preds)
	}
}

// TestAliveUnmappable reproduces §5: "Is Frank Herbert still alive?"
// extracts a triple whose predicate cannot be mapped — neither the
// relational patterns nor the property list contain "alive".
func TestAliveUnmappable(t *testing.T) {
	_, err := mapQuestion(t, "Is Frank Herbert still alive?")
	if err == nil {
		t.Fatal("expected ErrUnmappable for 'alive'")
	}
	ue, ok := err.(*ErrUnmappable)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if !strings.Contains(ue.Error(), "alive") {
		t.Errorf("error should mention the predicate: %v", ue)
	}
}

func TestUnknownEntityUnmappable(t *testing.T) {
	_, err := mapQuestion(t, "Who wrote Zorbulon Prime?")
	if err == nil {
		t.Fatal("expected ErrUnmappable for unknown entity")
	}
	if _, ok := err.(*ErrUnmappable); !ok {
		t.Fatalf("error type = %T", err)
	}
}

func TestClassSynonymResolution(t *testing.T) {
	// "movie" is not a class label; WordNet synonym "film" is.
	mp, err := mapQuestion(t, "Which movie is directed by Alfred Hitchcock?")
	if err != nil {
		t.Fatal(err)
	}
	if mp.Triples[0].Class != rdf.Ont("Film") {
		t.Errorf("class = %v, want dbont:Film via WordNet synonym", mp.Triples[0].Class)
	}
}

func TestMarriedMapsToSpouse(t *testing.T) {
	mp, err := mapQuestion(t, "Who is married to Barack Obama?")
	if err != nil {
		t.Fatal(err)
	}
	preds := mp.Triples[0].Predicates
	if len(preds) == 0 || preds[0].Property.Term != rdf.Ont("spouse") {
		t.Errorf("Pt(married) = %v, want spouse first", preds)
	}
}

func TestMayorMapping(t *testing.T) {
	mp, err := mapQuestion(t, "Who is the mayor of Berlin?")
	if err != nil {
		t.Fatal(err)
	}
	main := mp.Triples[0]
	if main.Subject != rdf.Res("Berlin") {
		t.Errorf("subject = %v", main.Subject)
	}
	if len(main.Predicates) == 0 || main.Predicates[0].Property.Term != rdf.Ont("mayor") {
		t.Errorf("Pt(mayor) = %v", main.Predicates)
	}
}

func TestSynonymPairsList(t *testing.T) {
	m := testMapper(t)
	syns := m.SynonymsOf("writer")
	found := false
	for _, p := range syns {
		if p.Term == rdf.Ont("author") {
			found = true
		}
	}
	if !found {
		t.Errorf("SynonymsOf(writer) = %v, want author (the §2.2.1 pair)", syns)
	}
}

func TestCandidateCapAndOrdering(t *testing.T) {
	mp, err := mapQuestion(t, "Where did Abraham Lincoln die?")
	if err != nil {
		t.Fatal(err)
	}
	preds := mp.Triples[0].Predicates
	if len(preds) > DefaultConfig().MaxCandidates {
		t.Errorf("candidates exceed cap: %d", len(preds))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i-1].RankScore() < preds[i].RankScore() {
			t.Errorf("candidates not sorted by rank at %d", i)
		}
	}
}

func TestWifeMapsToSpouseViaWordNet(t *testing.T) {
	// No string similarity links "wife" to "spouse"; the §2.2.1 WordNet
	// thresholds do (wife is a hyponym of spouse).
	mp, err := mapQuestion(t, "Who was the wife of Abraham Lincoln?")
	if err != nil {
		t.Fatal(err)
	}
	preds := mp.Triples[0].Predicates
	if !hasProp(preds, "spouse") {
		t.Errorf("Pt(wife) = %v, want spouse via WordNet", preds)
	}
	for _, c := range preds {
		if c.Property.Term == rdf.Ont("spouse") && c.Source != SourceWordNet && c.Freq == 0 {
			t.Errorf("spouse candidate source = %v, want wordnet", c.Source)
		}
	}
}

func TestPropertyHead(t *testing.T) {
	k := kb.Default()
	cases := map[string]string{
		"largestCity": "city",
		"leaderName":  "leader",
		"birthPlace":  "birth",
		"foundedBy":   "founded",
		"spouse":      "spouse",
		"deathDate":   "death",
	}
	for local, want := range cases {
		p, ok := k.PropertyByLocal(local)
		if !ok {
			t.Fatalf("property %s missing", local)
		}
		if got := propertyHead(p); got != want {
			t.Errorf("propertyHead(%s) = %q, want %q", local, got, want)
		}
	}
}

func TestAblationNoPatterns(t *testing.T) {
	k := kb.Default()
	cfg := DefaultConfig()
	cfg.DisablePatterns = true
	m := New(k, wordnet.Default(), nil, ner.NewLinker(k), cfg)
	ext, err := triplex.ExtractOpts("Where did Abraham Lincoln die?", triplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := m.Map(ext)
	if err != nil {
		// Without patterns "die" may be unmappable except via
		// nominalisation; that is the expected degradation.
		if _, ok := err.(*ErrUnmappable); !ok {
			t.Fatalf("error type = %T", err)
		}
		return
	}
	// If mapped, deathPlace must not be pattern-sourced.
	for _, c := range mp.Triples[0].Predicates {
		if c.Source == SourcePattern {
			t.Errorf("pattern-derived candidate with patterns disabled: %v", c)
		}
	}
}

func TestAblationNoWordNet(t *testing.T) {
	k := kb.Default()
	corpus := k.Corpus(kb.DefaultCorpusConfig())
	pats := patterns.Mine(k, corpus, patterns.DefaultMinerConfig())
	cfg := DefaultConfig()
	cfg.DisableWordNetSynonyms = true
	m := New(k, wordnet.Default(), pats, ner.NewLinker(k), cfg)
	if len(m.SynonymsOf("writer")) != 0 {
		t.Error("synonym pairs should be empty when disabled")
	}
}
