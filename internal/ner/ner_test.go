package ner

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/nlp/token"
	"repro/internal/rdf"
)

// Spot finds candidate mentions by longest-match n-gram label lookup.
// Lowercase single words are skipped unless no capitalised token exists
// in the gram (protects against common-noun/label collisions like
// "snow" vs the novel Snow).
func (l *Linker) Spot(words []string) []Mention {
	var out []Mention
	n := len(words)
	used := make([]bool, n)
	maxLen := 1 // the longest label, in tokens
	for key := range l.exact {
		maxLen = max(maxLen, len(token.Words(key)))
	}
	for span := maxLen; span >= 1; span-- {
		for i := 0; i+span <= n; i++ {
			overlap := false
			for j := i; j < i+span; j++ {
				if used[j] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			gram := strings.Join(words[i:i+span], " ")
			lb, ok := l.exact[strings.ToLower(gram)]
			if !ok {
				continue
			}
			if !containsCapital(words[i : i+span]) {
				continue // only capitalised surface forms spot entities
			}
			out = append(out, Mention{Text: gram, Start: i, End: i + span, Candidates: l.candidates(lb)})
			for j := i; j < i+span; j++ {
				used[j] = true
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func containsCapital(words []string) bool {
	for _, w := range words {
		if w != "" && w[0] >= 'A' && w[0] <= 'Z' {
			return true
		}
	}
	return false
}

// Link runs Spot + Disambiguate over raw text.
func (l *Linker) Link(text string) []Mention {
	return l.Disambiguate(l.Spot(token.Words(text)))
}

var (
	linkOnce sync.Once
	linker   *Linker
)

func testLinker(t *testing.T) *Linker {
	t.Helper()
	linkOnce.Do(func() { linker = NewLinker(kb.Default()) })
	return linker
}

func TestSpotSimpleMention(t *testing.T) {
	l := testLinker(t)
	ms := l.Spot(token.Words("Which book is written by Orhan Pamuk?"))
	if len(ms) != 1 {
		t.Fatalf("mentions = %+v, want 1", ms)
	}
	if ms[0].Text != "Orhan Pamuk" {
		t.Errorf("mention text = %q", ms[0].Text)
	}
	if len(ms[0].Candidates) != 1 || ms[0].Candidates[0].Entity != rdf.Res("Orhan_Pamuk") {
		t.Errorf("candidates = %+v", ms[0].Candidates)
	}
}

func TestSpotLongestMatch(t *testing.T) {
	l := testLinker(t)
	// "The War of the Worlds" must spot as one mention, not "Worlds".
	ms := l.Spot(token.Words("Who wrote The War of the Worlds?"))
	found := false
	for _, m := range ms {
		if m.Text == "The War of the Worlds" {
			found = true
		}
	}
	if !found {
		t.Errorf("longest match failed: %+v", ms)
	}
}

func TestSpotSkipsLowercaseCommonWords(t *testing.T) {
	l := testLinker(t)
	// "snow" lowercase must not spot the novel Snow.
	ms := l.Spot(token.Words("how much snow falls in winter"))
	for _, m := range ms {
		t.Errorf("unexpected mention %+v for lowercase text", m)
	}
}

func TestDisambiguateMichaelJordan(t *testing.T) {
	l := testLinker(t)
	// The basketball player is more central than the footballer.
	e, cands, ok := l.Resolve("Michael Jordan")
	if !ok {
		t.Fatal("Resolve failed")
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v, want 2", cands)
	}
	if e != rdf.Res("Michael_Jordan") {
		t.Errorf("selected %v, want the basketball player", e)
	}
}

func TestDisambiguateVictoriaPicksCanadianCity(t *testing.T) {
	l := testLinker(t)
	// The evaluation's engineered NED-error case: the heavily linked
	// Canadian city outranks the Australian state.
	e, cands, ok := l.Resolve("Victoria")
	if !ok || len(cands) != 2 {
		t.Fatalf("Resolve(Victoria) = %v, %+v, %v", e, cands, ok)
	}
	if e != rdf.Res("Victoria,_British_Columbia") {
		t.Errorf("selected %v, want Victoria, British Columbia (higher degree)", e)
	}
}

func TestContextCentralityHelps(t *testing.T) {
	l := testLinker(t)
	// With "Chicago Bulls" as context the basketball player must win
	// decisively (direct page link).
	e, _, ok := l.Resolve("Michael Jordan", "Chicago Bulls")
	if !ok || e != rdf.Res("Michael_Jordan") {
		t.Errorf("Resolve with context = %v, %v", e, ok)
	}
}

func TestResolveWithLeadingArticle(t *testing.T) {
	l := testLinker(t)
	e, _, ok := l.Resolve("The Godfather")
	if !ok || e != rdf.Res("The_Godfather") {
		t.Errorf("Resolve(The Godfather) = %v, %v", e, ok)
	}
	// Article-stripped fallback: "the Nile" -> Nile.
	e2, _, ok2 := l.Resolve("the Nile")
	if !ok2 || e2 != rdf.Res("Nile") {
		t.Errorf("Resolve(the Nile) = %v, %v", e2, ok2)
	}
}

func TestResolveFuzzy(t *testing.T) {
	l := testLinker(t)
	// Minor typo: "Orhan Pamukk" should still hit via Jaro-Winkler.
	e, _, ok := l.Resolve("Orhan Pamukk")
	if !ok || e != rdf.Res("Orhan_Pamuk") {
		t.Errorf("fuzzy Resolve = %v, %v", e, ok)
	}
}

func TestResolveUnknown(t *testing.T) {
	l := testLinker(t)
	if _, _, ok := l.Resolve("Completely Unknown Entity XYZ"); ok {
		t.Error("unknown phrase should not resolve")
	}
	if _, _, ok := l.Resolve(""); ok {
		t.Error("empty phrase should not resolve")
	}
}

func TestLinkFullQuestion(t *testing.T) {
	l := testLinker(t)
	ms := l.Link("Is Michael Jordan taller than Scottie Pippen?")
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v, want 2", ms)
	}
	for _, m := range ms {
		if m.Entity.IsZero() {
			t.Errorf("mention %q not disambiguated", m.Text)
		}
	}
}

func TestMentionsDoNotOverlap(t *testing.T) {
	l := testLinker(t)
	ms := l.Spot(token.Words("Where was Michael Jackson born?"))
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			if ms[i].Start < ms[j].End && ms[j].Start < ms[i].End {
				t.Errorf("overlapping mentions %+v and %+v", ms[i], ms[j])
			}
		}
	}
}

func TestDeterministicSelection(t *testing.T) {
	l := testLinker(t)
	for i := 0; i < 5; i++ {
		e, _, _ := l.Resolve("Victoria")
		if e != rdf.Res("Victoria,_British_Columbia") {
			t.Fatalf("iteration %d: nondeterministic selection %v", i, e)
		}
	}
}
