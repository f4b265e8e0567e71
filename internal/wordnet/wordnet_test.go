package wordnet

import (
	"testing"
	"testing/quick"
)

// Synset returns a synset by ID.
func (db *DB) Synset(id string) (*Synset, bool) {
	s, ok := db.synsets[id]
	return s, ok
}

// Known reports whether the word is in the database for the POS.
func (db *DB) Known(word, pos string) bool {
	return db.Word(word, pos).Known()
}

// WuPalmer returns the maximum Wu & Palmer similarity over all synset
// pairs of the two words.
func (db *DB) WuPalmer(w1, w2, pos string) float64 {
	wp, _ := db.best(db.Word(w1, pos), db.Word(w2, pos))
	return wp
}

// Lin returns the maximum Lin similarity over all synset pairs.
func (db *DB) Lin(w1, w2, pos string) float64 {
	_, lin := db.best(db.Word(w1, pos), db.Word(w2, pos))
	return lin
}

// SimilarPair is Similar for two words used once.
func (db *DB) SimilarPair(w1, w2, pos string) bool {
	return db.Similar(db.Word(w1, pos), db.Word(w2, pos))
}

func TestWriterAuthorSameSynset(t *testing.T) {
	db := Default()
	if got := db.Lin("writer", "author", Noun); got != 1 {
		t.Errorf("Lin(writer, author) = %v, want 1 (same synset)", got)
	}
	if got := db.WuPalmer("writer", "author", Noun); got != 1 {
		t.Errorf("WuPalmer(writer, author) = %v, want 1", got)
	}
}

func TestFilmMovieSameSynset(t *testing.T) {
	db := Default()
	if !db.SimilarPair("film", "movie", Noun) {
		t.Error("film ~ movie should clear the thresholds")
	}
}

func TestPaperThresholdPairs(t *testing.T) {
	db := Default()
	// Pairs the paper's §2.2 relies on (similar under Lin>=0.75 or WuP>=0.85).
	similar := [][2]string{
		{"writer", "author"},
		{"wife", "spouse"},
		{"husband", "spouse"},
		{"novelist", "writer"},
		{"height", "tallness"},
		{"elevation", "height"},
		{"award", "prize"},
		{"country", "nation"},
	}
	for _, p := range similar {
		if !db.SimilarPair(p[0], p[1], Noun) {
			t.Errorf("%s ~ %s should be similar (Lin=%.3f, WuP=%.3f)",
				p[0], p[1], db.Lin(p[0], p[1], Noun), db.WuPalmer(p[0], p[1], Noun))
		}
	}
	// Pairs that must NOT clear the thresholds (distinct properties).
	dissimilar := [][2]string{
		{"writer", "mountain"},
		{"height", "population"},
		{"book", "person"},
		{"capital", "currency"},
		{"writer", "director"},
	}
	for _, p := range dissimilar {
		if db.SimilarPair(p[0], p[1], Noun) {
			t.Errorf("%s ~ %s should NOT be similar (Lin=%.3f, WuP=%.3f)",
				p[0], p[1], db.Lin(p[0], p[1], Noun), db.WuPalmer(p[0], p[1], Noun))
		}
	}
}

func TestVerbSimilarity(t *testing.T) {
	db := Default()
	if db.Lin("write", "pen", Verb) != 1 {
		t.Error("write ~ pen same synset")
	}
	if !db.SimilarPair("die", "decease", Verb) {
		t.Error("die ~ decease should be similar")
	}
	if db.SimilarPair("write", "die", Verb) {
		t.Errorf("write ~ die should not be similar (Lin=%.3f WuP=%.3f)",
			db.Lin("write", "die", Verb), db.WuPalmer("write", "die", Verb))
	}
}

func TestAdjectiveAttributes(t *testing.T) {
	db := Default()
	cases := []struct{ adj, want string }{
		{"tall", "height"},
		{"deep", "depth"},
		{"long", "length"},
		{"heavy", "weight"},
		{"high", "elevation"},
		{"populous", "population"},
		{"old", "age"},
	}
	for _, c := range cases {
		got, ok := db.AdjectiveAttribute(c.adj)
		if !ok || got != c.want {
			t.Errorf("AdjectiveAttribute(%s) = %q, %v; want %q", c.adj, got, ok, c.want)
		}
	}
	// §5: "alive" intentionally maps to nothing.
	if _, ok := db.AdjectiveAttribute("alive"); ok {
		t.Error("alive should have no attribute (paper §5 failure case)")
	}
	if _, ok := db.AdjectiveAttribute("nonexistentadj"); ok {
		t.Error("unknown adjective should have no attribute")
	}
}

func TestSynonyms(t *testing.T) {
	db := Default()
	syns := db.Synonyms("writer", Noun)
	found := false
	for _, s := range syns {
		if s == "author" {
			found = true
		}
	}
	if !found {
		t.Errorf("Synonyms(writer) = %v, missing author", syns)
	}
	if len(db.Synonyms("qqqq", Noun)) != 0 {
		t.Error("unknown word should have no synonyms")
	}
}

func TestKnownAndSynsets(t *testing.T) {
	db := Default()
	if !db.Known("person", Noun) || db.Known("person", Verb) {
		t.Error("Known POS discrimination broken")
	}
	if len(db.Synsets("city", Noun)) == 0 {
		t.Error("Synsets(city) empty")
	}
	if _, ok := db.Synset("n.person"); !ok {
		t.Error("Synset by ID failed")
	}
	if _, ok := db.Synset("n.nope"); ok {
		t.Error("unknown synset ID should fail")
	}
}

func TestUnknownWordsScoreZero(t *testing.T) {
	db := Default()
	if db.Lin("xqzw", "writer", Noun) != 0 {
		t.Error("unknown word Lin should be 0")
	}
	if db.WuPalmer("xqzw", "writer", Noun) != 0 {
		t.Error("unknown word WuP should be 0")
	}
}

func TestCrossPOSNoLeak(t *testing.T) {
	db := Default()
	// "write" is a verb; asking for the noun must find nothing.
	if db.Known("write", Noun) {
		t.Error("write should not be a noun in the database")
	}
}

func TestMetricProperties(t *testing.T) {
	db := Default()
	words := []string{"writer", "author", "mountain", "city", "height",
		"population", "book", "spouse", "wife", "person", "capital"}
	// Symmetry, identity and range for both metrics.
	prop := func(i, j uint8) bool {
		a := words[int(i)%len(words)]
		b := words[int(j)%len(words)]
		lin1, lin2 := db.Lin(a, b, Noun), db.Lin(b, a, Noun)
		wp1, wp2 := db.WuPalmer(a, b, Noun), db.WuPalmer(b, a, Noun)
		if lin1 != lin2 || wp1 != wp2 {
			return false
		}
		if lin1 < 0 || lin1 > 1 || wp1 < 0 || wp1 > 1 {
			return false
		}
		if a == b && (lin1 != 1 || wp1 != 1) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuildPrunesDanglingHypernyms(t *testing.T) {
	db := Build([]*Synset{
		{ID: "a", POS: Noun, Words: []string{"a"}, Hypernyms: []string{"missing"}},
	})
	if db.WuPalmer("a", "a", Noun) != 1 {
		t.Error("self similarity after prune should be 1")
	}
}

func TestBuildToleratesCycle(t *testing.T) {
	db := Build([]*Synset{
		{ID: "a", POS: Noun, Words: []string{"a"}, Hypernyms: []string{"b"}},
		{ID: "b", POS: Noun, Words: []string{"b"}, Hypernyms: []string{"a"}},
	})
	// Must not hang or panic; values bounded.
	if v := db.WuPalmer("a", "b", Noun); v < 0 || v > 1 {
		t.Errorf("cycle WuP = %v", v)
	}
}

func TestHierarchyDepthSensible(t *testing.T) {
	db := Default()
	// person must be deeper than organism which is deeper than entity.
	dPerson := db.depth["n.person"]
	dOrganism := db.depth["n.organism"]
	dEntity := db.depth["n.entity"]
	if !(dEntity < dOrganism && dOrganism < dPerson) {
		t.Errorf("depths: entity=%d organism=%d person=%d", dEntity, dOrganism, dPerson)
	}
}
