package strsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// jaroSim is the Jaro similarity alone, without the shared prefix.
func jaroSim(a, b string) float64 {
	sim, _ := jaroOf(a, b)
	return sim
}

// Levenshtein returns the edit distance between a and b over runes,
// case-sensitively.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// NormalizedLevenshtein returns 1 - dist/maxLen in [0,1]; 1.0 for equal
// strings (including two empty strings).
func NormalizedLevenshtein(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

func TestLCSLength(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 0},
		{"", "b", 0},
		{"abc", "abc", 3},
		{"abc", "axbxc", 3},
		{"written", "writer", 5}, // w-r-i-t-e
		{"river", "taxiDriver", 5},
		{"ABC", "abc", 3}, // case-insensitive
		{"xyz", "abc", 0},
	}
	for _, c := range cases {
		if got := LCSLength(c.a, c.b); got != c.want {
			t.Errorf("LCSLength(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCSScore(t *testing.T) {
	// The paper: score = LCS length / word length.
	if got := GCSScore("river", "taxiDriver"); got != 1.0 {
		t.Errorf("GCSScore(river, taxiDriver) = %v, want 1.0 (raw subsequence)", got)
	}
	if got := GCSScore("written", "writer"); math.Abs(got-5.0/7.0) > 1e-9 {
		t.Errorf("GCSScore(written, writer) = %v, want 5/7", got)
	}
	if GCSScore("", "x") != 0 {
		t.Error("empty word should score 0")
	}
}

func TestPropertyScoreTaxiDriverGuard(t *testing.T) {
	// §2.2.1: the guard must eliminate the "taxiDriver" encapsulating
	// "river" miscalculation while keeping genuine matches strong.
	river := splitName("taxiDriver").Score("river")
	writer := splitName("writer").Score("written")
	if river >= writer {
		t.Errorf("guard failed: score(river,taxiDriver)=%v >= score(written,writer)=%v", river, writer)
	}
	if river > 0.5 {
		t.Errorf("score(river,taxiDriver)=%v should be heavily damped", river)
	}
	if splitName("writer").Score("writer") != 1.0 {
		t.Error("identical word should score 1.0")
	}
	if splitName("birthPlace").Score("place") != 1.0 {
		t.Error("word-boundary containment should score 1.0")
	}
	if splitName("height").Score("height") != 1.0 {
		t.Error("height should match height exactly")
	}
	if splitName("x").Score("") != 0 || splitName("").Score("x") != 0 {
		t.Error("empty inputs should score 0")
	}
}

// TestPropertyScoreAlignmentGuard pins the alignment damping,
// including the degenerate one-letter case: for a one-letter word the
// old stem-overlap threshold len(w)-1 was 0, so *any* candidate counted
// as aligned and escaped the 0.25 damping.
func TestPropertyScoreAlignmentGuard(t *testing.T) {
	cases := []struct {
		word, candidate string
		want            float64
	}{
		// One-letter words never word-boundary-match a longer part and
		// share no prefix: the subsequence hit must be damped.
		{"a", "banana", 1.0 * 0.25},
		{"e", "height", 1.0 * 0.25},
		// Exact word-boundary containment stays a perfect match.
		{"place", "birthPlace", 1.0},
		{"a", "a", 1.0},
		// 3+ letter shared prefix keeps the full subsequence score.
		{"height", "heights", 1.0},
		// Short-word stem overlap still counts when at least one letter
		// is actually shared (sharedPrefix("do","dog") = 2 >= 1).
		{"dog", "dogma", 1.0},
		// Two-letter word with no shared prefix: damped (unchanged).
		{"it", "orbit", 1.0 * 0.25},
	}
	for _, c := range cases {
		if got := splitName(c.candidate).Score(c.word); got != c.want {
			t.Errorf("splitName(%q).Score(%q) = %v, want %v", c.word, c.candidate, got, c.want)
		}
	}
}

func TestPropertyScoreRanksIntendedProperty(t *testing.T) {
	// "written" must prefer writer/author-like names over unrelated ones.
	props := []string{"writer", "width", "winner", "taxiDriver", "runtime"}
	best, bestScore := "", -1.0
	for _, p := range props {
		if s := splitName(p).Score("written"); s > bestScore {
			best, bestScore = p, s
		}
	}
	if best != "writer" {
		t.Errorf("best property for 'written' = %q (score %v), want writer", best, bestScore)
	}
}

func TestWordBoundaryContains(t *testing.T) {
	cases := []struct {
		word, cand string
		want       bool
	}{
		{"place", "birthPlace", true},
		{"birth", "birthPlace", true},
		{"river", "taxiDriver", false},
		{"driver", "taxiDriver", true},
		{"population", "populationTotal", true},
		{"total", "populationTotal", true},
		{"pop", "populationTotal", false},
		{"name", "leaderName", true},
	}
	for _, c := range cases {
		if got := splitName(c.cand).Contains(c.word); got != c.want {
			t.Errorf("splitName(%q).Contains(%q) = %v, want %v", c.word, c.cand, got, c.want)
		}
	}
}

func TestSplitIdentifier(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"birthPlace", []string{"birth", "Place"}},
		{"populationTotal", []string{"population", "Total"}},
		{"writer", []string{"writer"}},
		{"death_date", []string{"death", "date"}},
		{"HTTPServer", []string{"HTTP", "Server"}},
		{"", nil},
	}
	for _, c := range cases {
		got := SplitIdentifier(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SplitIdentifier(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitIdentifier(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestNormalizedLevenshtein(t *testing.T) {
	if NormalizedLevenshtein("", "") != 1 {
		t.Error("two empties should be 1")
	}
	if NormalizedLevenshtein("abc", "abc") != 1 {
		t.Error("equal should be 1")
	}
	if NormalizedLevenshtein("abc", "xyz") != 0 {
		t.Error("disjoint equal-length should be 0")
	}
}

func TestJaroWinkler(t *testing.T) {
	if JaroWinkler("", "") != 1 {
		t.Error("two empties should be 1")
	}
	if JaroWinkler("abc", "") != 0 {
		t.Error("one empty should be 0")
	}
	if JaroWinkler("orhan pamuk", "orhan pamuk") != 1 {
		t.Error("equal should be 1")
	}
	// Known value: JW(MARTHA, MARHTA) ≈ 0.961.
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.961) > 0.001 {
		t.Errorf("JaroWinkler(MARTHA, MARHTA) = %v, want ≈0.961", got)
	}
	// Prefix boost: jaro-winkler favours shared prefixes.
	if JaroWinkler("michael", "michaela") <= jaroSim("michael", "michaela") {
		t.Error("winkler prefix boost missing")
	}
}

func TestTokenOverlap(t *testing.T) {
	if Jaccard(Tokens("orhan pamuk"), Tokens("orhan pamuk")) != 1 {
		t.Error("identical token sets should be 1")
	}
	if got := Jaccard(Tokens("orhan pamuk"), Tokens("pamuk")); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("TokenOverlap = %v, want 0.5", got)
	}
	if Jaccard(Tokens("a b"), Tokens("c d")) != 0 {
		t.Error("disjoint should be 0")
	}
	if Jaccard(Tokens(""), Tokens("")) != 1 {
		t.Error("two empties should be 1")
	}
}

// Properties of the similarity functions, checked with testing/quick.

func TestLCSProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return LCSLength(a, b) == LCSLength(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("LCS symmetry:", err)
	}
	bounded := func(a, b string) bool {
		l := LCSLength(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		m := la
		if lb < m {
			m = lb
		}
		return l >= 0 && l <= m
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("LCS bound:", err)
	}
	identity := func(a string) bool {
		return LCSLength(a, a) == len([]rune(strings.ToLower(a)))
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("LCS identity:", err)
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("identity:", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 150}); err != nil {
		t.Error("triangle inequality:", err)
	}
}

func TestJaroProperties(t *testing.T) {
	inRange := func(a, b string) bool {
		j := jaroSim(a, b)
		jw := JaroWinkler(a, b)
		return j >= 0 && j <= 1 && jw >= 0 && jw <= 1.0000001 && jw >= j-1e-12
	}
	if err := quick.Check(inRange, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
