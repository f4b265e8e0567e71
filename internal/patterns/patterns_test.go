package patterns

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
)

// Frequency returns the word-level frequency of (lemma, property).
func (st *Store) Frequency(lem string, prop rdf.Term) int {
	if m := st.words[strings.ToLower(lem)]; m != nil {
		if pf := m[prop]; pf != nil {
			return pf.Freq
		}
	}
	return 0
}

// Subsumers returns the patterns that subsume the given pattern text in
// the mined taxonomy.
func (st *Store) Subsumers(text string) []string {
	var out []string
	for super, subs := range st.subsumes {
		for _, s := range subs {
			if s == text {
				out = append(out, super)
			}
		}
	}
	sort.Strings(out)
	return out
}

var (
	mineOnce  sync.Once
	minedKB   *kb.KB
	minedShop *Store
)

// mined builds the default KB + corpus + pattern store once for the
// whole test package (mining is the expensive step).
func mined(t *testing.T) (*kb.KB, *Store) {
	t.Helper()
	mineOnce.Do(func() {
		minedKB = kb.Default()
		corpus := minedKB.Corpus(kb.DefaultCorpusConfig())
		minedShop = Mine(minedKB, corpus, DefaultMinerConfig())
	})
	return minedKB, minedShop
}

// TestDiePatternRanking reproduces the paper's §2.2.3 worked example:
// Pt("die") = {deathPlace, birthPlace, residence} with deathPlace
// ranked first by frequency.
func TestDiePatternRanking(t *testing.T) {
	_, st := mined(t)
	props := st.PropertiesForWord("die")
	if len(props) == 0 {
		t.Fatal("no properties for 'die'")
	}
	if props[0].Property != rdf.Ont("deathPlace") {
		t.Errorf("top property for 'die' = %v, want dbont:deathPlace (all: %v)", props[0].Property, props)
	}
	// The noise makes birthPlace appear with lower frequency.
	var hasBirth bool
	for _, p := range props[1:] {
		if p.Property == rdf.Ont("birthPlace") {
			hasBirth = true
			if p.Freq >= props[0].Freq {
				t.Errorf("birthPlace freq %d should be below deathPlace %d", p.Freq, props[0].Freq)
			}
		}
	}
	if !hasBirth {
		t.Log("note: no birthPlace noise for 'die' at this seed (acceptable, noise is probabilistic)")
	}
}

func TestBearMapsToBirthPlace(t *testing.T) {
	_, st := mined(t)
	props := st.PropertiesForWord("bear") // lemma of "born"
	if len(props) == 0 {
		t.Fatal("no properties for 'bear'")
	}
	if props[0].Property != rdf.Ont("birthPlace") {
		t.Errorf("top property for 'bear' = %v, want birthPlace", props[0].Property)
	}
}

func TestWriteMapsToAuthorOrWriter(t *testing.T) {
	_, st := mined(t)
	props := st.PropertiesForWord("write")
	if len(props) == 0 {
		t.Fatal("no properties for 'write'")
	}
	top := props[0].Property
	if top != rdf.Ont("author") && top != rdf.Ont("writer") {
		t.Errorf("top property for 'write' = %v, want author/writer", top)
	}
	// Both must be present (DBpedia has both, the corpus verbalises both).
	seen := map[rdf.Term]bool{}
	for _, p := range props {
		seen[p.Property] = true
	}
	if !seen[rdf.Ont("author")] || !seen[rdf.Ont("writer")] {
		t.Errorf("'write' should map to both author and writer: %v", props)
	}
}

func TestGrowMapsToBirthPlaceFirst(t *testing.T) {
	// The engineered PATTY-noise case: "grew up in" verbalises both
	// birthPlace (many facts) and hometown (few facts), so the word
	// ranks birthPlace first — the evaluation's wrong-answer source.
	_, st := mined(t)
	props := st.PropertiesForWord("grow")
	if len(props) < 2 {
		t.Fatalf("grow should map to at least 2 properties: %v", props)
	}
	if props[0].Property != rdf.Ont("birthPlace") {
		t.Errorf("top property for 'grow' = %v, want birthPlace", props[0].Property)
	}
}

func TestLeaderMapsToLeaderName(t *testing.T) {
	_, st := mined(t)
	props := st.PropertiesForWord("leader")
	if len(props) == 0 || props[0].Property != rdf.Ont("leaderName") {
		t.Errorf("leader -> %v, want leaderName first", props)
	}
}

func TestMarryMapsToSpouse(t *testing.T) {
	_, st := mined(t)
	props := st.PropertiesForWord("marry")
	if len(props) == 0 || props[0].Property != rdf.Ont("spouse") {
		t.Errorf("marry -> %v, want spouse first", props)
	}
}

func TestFrequencyLookup(t *testing.T) {
	_, st := mined(t)
	if st.Frequency("die", rdf.Ont("deathPlace")) == 0 {
		t.Error("Frequency(die, deathPlace) should be positive")
	}
	if st.Frequency("die", rdf.Ont("capital")) != 0 {
		t.Error("Frequency(die, capital) should be 0")
	}
	if st.Frequency("zzzz", rdf.Ont("deathPlace")) != 0 {
		t.Error("unknown word should have 0 frequency")
	}
}

func TestPatternLevelDistribution(t *testing.T) {
	_, st := mined(t)
	// "be bear in" — the canonical birthPlace pattern.
	props := st.PropertiesForPattern("be bear in")
	if len(props) == 0 {
		t.Fatalf("pattern 'be bear in' not mined; have %d patterns", len(st.Patterns()))
	}
	if props[0].Property != rdf.Ont("birthPlace") {
		t.Errorf("'be bear in' top property = %v", props[0].Property)
	}
	if got := st.PropertiesForPattern("no such pattern"); got != nil {
		t.Error("unknown pattern should return nil")
	}
}

func TestDirectionCounts(t *testing.T) {
	_, st := mined(t)
	// "{O} wrote {S}" puts the property object first -> inverse;
	// "{S} was written by {O}" is forward. Both must be observed.
	props := st.PropertiesForWord("write")
	for _, p := range props {
		if p.Property == rdf.Ont("author") {
			if p.Forward == 0 || p.Inverse == 0 {
				t.Errorf("author via 'write' should be seen in both directions: %+v", p)
			}
			if p.Forward+p.Inverse != p.Freq {
				t.Errorf("direction counts inconsistent: %+v", p)
			}
		}
	}
}

func TestMinSupportPruning(t *testing.T) {
	k, _ := mined(t)
	corpus := k.Corpus(kb.DefaultCorpusConfig())
	loose := Mine(k, corpus, MinerConfig{MinSupport: 1, SubsumeThreshold: 0.9})
	strict := Mine(k, corpus, MinerConfig{MinSupport: 5, SubsumeThreshold: 0.9})
	if len(strict.Patterns()) >= len(loose.Patterns()) {
		t.Errorf("higher MinSupport should prune patterns: %d vs %d",
			len(strict.Patterns()), len(loose.Patterns()))
	}
	for _, p := range strict.Patterns() {
		if p.SupportSize() < 5 {
			t.Errorf("pattern %q survived below MinSupport: %d", p.Text, p.SupportSize())
		}
	}
}

func TestSubsumptionAndSynonyms(t *testing.T) {
	_, st := mined(t)
	// Taxonomy edges exist (the corpus yields containable patterns like
	// "die in" vs "die at" over overlapping supports, and synonym sets
	// from equal-support template pairs).
	pats := st.Patterns()
	if len(pats) < 10 {
		t.Fatalf("too few patterns mined: %d", len(pats))
	}
	// At least some structure emerges.
	structure := len(st.SynonymGroups())
	for _, p := range pats {
		structure += len(st.Subsumed(p.Text))
	}
	if structure == 0 {
		t.Error("no taxonomy structure (subsumption or synonyms) mined")
	}
	// Subsumers/Subsumed are consistent.
	for _, p := range pats {
		for _, sub := range st.Subsumed(p.Text) {
			found := false
			for _, super := range st.Subsumers(sub) {
				if super == p.Text {
					found = true
				}
			}
			if !found {
				t.Errorf("subsumption inconsistency: %q subsumes %q but reverse lookup fails", p.Text, sub)
			}
		}
	}
}

func TestWordsListed(t *testing.T) {
	_, st := mined(t)
	words := st.Words()
	if len(words) == 0 {
		t.Fatal("no words indexed")
	}
	seen := map[string]bool{}
	for _, w := range words {
		if seen[w] {
			t.Errorf("duplicate word %q", w)
		}
		seen[w] = true
	}
	for _, want := range []string{"die", "bear", "write", "marry", "capital"} {
		if !seen[want] {
			t.Errorf("word index missing %q", want)
		}
	}
}

func TestDeterministicMining(t *testing.T) {
	k, _ := mined(t)
	corpus := k.Corpus(kb.DefaultCorpusConfig())
	a := Mine(k, corpus, DefaultMinerConfig())
	b := Mine(k, corpus, DefaultMinerConfig())
	pa, pb := a.Patterns(), b.Patterns()
	if len(pa) != len(pb) {
		t.Fatalf("pattern counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Text != pb[i].Text || pa[i].SupportSize() != pb[i].SupportSize() {
			t.Fatalf("pattern %d differs: %q/%d vs %q/%d",
				i, pa[i].Text, pa[i].SupportSize(), pb[i].Text, pb[i].SupportSize())
		}
	}
}

// TestMineSkipsUnknownMentions: a sentence mentioning a term the KB
// lacks cannot be supervised, so it changes nothing.
func TestMineSkipsUnknownMentions(t *testing.T) {
	k, _ := mined(t)
	corpus := k.Corpus(kb.DefaultCorpusConfig())
	stray := corpus[0]
	stray.Subject = rdf.Res("No_Such_Entity")
	withStray := append(append([]kb.Sentence(nil), corpus...), stray)
	cfg := MinerConfig{MinSupport: 1, SubsumeThreshold: 0.9}
	compareStores(t, Mine(k, withStray, cfg), referenceMine(k, corpus, cfg))
}
