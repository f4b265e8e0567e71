package strsim_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/qald"
	"repro/internal/strsim"
	"repro/internal/testutil"
)

// refScore is Name.Score as it read before the bit-parallel kernel: the
// same guard and damping around GCSScore, whose LCS is the dynamic
// program.
func refScore(word, name string) float64 {
	if word == "" || name == "" {
		return 0
	}
	if strsim.CompileName(name).Contains(word) {
		return 1
	}
	score := strsim.GCSScore(word, name)
	if score == 0 {
		return 0
	}
	wl := strings.ToLower(word)
	for _, p := range strsim.SplitIdentifier(name) {
		p = strings.ToLower(p)
		sp := 0
		for sp < len(wl) && sp < len(p) && wl[sp] == p[sp] {
			sp++
		}
		if sp >= 3 || (sp >= 1 && sp >= len(wl)-1) {
			return score
		}
	}
	return score * 0.25
}

func asciiOnly(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0
}

// checkLCS holds one (word, name) pair to the dynamic program: the
// kernel runs exactly for an ASCII word against a non-empty ASCII name
// of at most 64 bytes, returns LCSLength there, and Score is
// bit-identical to the reference either way.
func checkLCS(t testing.TB, word, name string) {
	t.Helper()
	n := strsim.CompileName(name)
	got, ok := n.LCSBits(word)
	if want := name != "" && len(name) <= 64 && asciiOnly(name) && asciiOnly(word); ok != want {
		t.Errorf("kernel taken = %v for word %q, name %q; want %v", ok, word, name, want)
	}
	if want := strsim.LCSLength(word, name); ok && got != want {
		t.Errorf("bit-parallel LCS(%q, %q) = %d, dynamic program %d", word, name, got, want)
	}
	if got, want := n.Score(word), refScore(word, name); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Score(%q) against %q = %v, reference %v", word, name, got, want)
	}
}

// lcsSeeds are the shapes the kernel branches on: empty sides, one
// byte, the 64-byte mask limit and either side of it, case folding,
// digits, repeated letters, separators, and the inputs that must fall
// back (non-ASCII or invalid UTF-8 on either side, a name past 64).
var lcsSeeds = [][2]string{
	{"", ""}, {"", "writer"}, {"writer", ""}, {"a", "a"}, {"a", "A"}, {"a", "b"}, {"e", "birthPlace"},
	{"river", "taxiDriver"}, {"written", "writer"}, {"WRITTEN", "wRiTeR"}, {"die", "deathPlace"},
	{"population", "populationTotal"}, {"0123", "area51Code0123"}, {"aaaa", "aaaaaaaa"}, {"abab", "baba"},
	{"largest city", "largest_city-name"}, {"[]{}", "a[b]{c}"}, {"@`", "@`"},
	{strings.Repeat("ab", 40), strings.Repeat("ba", 31) + "a"},
	{strings.Repeat("ab", 40), strings.Repeat("ba", 32)},
	{strings.Repeat("ab", 40), strings.Repeat("ba", 32) + "a"},
	{"z", strings.Repeat("z", 64)}, {strings.Repeat("z", 200), strings.Repeat("z", 64)},
	{"zurich", "zürich"}, {"zürich", "zurich"}, {"ÉCOLE", "école"}, {"a\xffb", "ab"}, {"ab", "a\xffb"},
	{"İ", "i"}, {"K", "K"}, {"writer", strings.Repeat("writer", 11)},
}

func TestBitParallelLCSMatchesDP(t *testing.T) {
	for _, s := range lcsSeeds {
		checkLCS(t, s[0], s[1])
	}

	// Every word a QALD or entity-template question holds, as written
	// and with its punctuation trimmed, against every property name the
	// mapper compiles.
	k := kb.Default()
	var names []string
	for _, p := range k.Properties() {
		names = append(names, p.Term.LocalName(), strings.ReplaceAll(p.Label, " ", ""), p.Label)
	}
	var questions []string
	for _, q := range qald.FullSet() {
		questions = append(questions, q.Text)
	}
	questions = append(questions, testutil.EntityQuestions(k)...)
	words := map[string]bool{}
	for _, q := range questions {
		for _, w := range strings.Fields(q) {
			words[w] = true
			words[strings.Trim(w, "?.,'\"()")] = true
		}
	}
	if len(words) < 500 || len(names) < 100 {
		t.Fatalf("%d words × %d names: the differential is not exercising the schema", len(words), len(names))
	}
	for w := range words {
		for _, name := range names {
			checkLCS(t, w, name)
		}
	}

	// Seeded pairs over a small alphabet (long common subsequences, many
	// ties) at the lengths around the mask limit.
	rng := rand.New(rand.NewSource(16))
	alphabet := []rune("abcABC019_ é")
	lengths := []int{0, 1, 2, 5, 11, 63, 64, 65, 130}
	gen := func() string {
		r := make([]rune, lengths[rng.Intn(len(lengths))])
		letters := alphabet[:len(alphabet)-1] // ASCII, so long names reach the kernel
		if rng.Intn(8) == 0 {
			letters = alphabet
		}
		for i := range r {
			r[i] = letters[rng.Intn(len(letters))]
		}
		return string(r)
	}
	for i := 0; i < 20000; i++ {
		checkLCS(t, gen(), gen())
	}
}

// FuzzLCS: on any pair of byte strings, valid UTF-8 or not, Name.Score
// equals the dynamic-program reference bit for bit, the kernel runs
// exactly where its masks reach, and nothing panics.
func FuzzLCS(f *testing.F) {
	for _, s := range lcsSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, word, name string) {
		checkLCS(t, word, name)
	})
}

// FuzzScoreBound: a Score above Damping has a name part whose first
// byte is the folded word's, unless either begins with a non-ASCII
// byte; the initials propmap keeps per row then meet the word's.
func FuzzScoreBound(f *testing.F) {
	for _, s := range lcsSeeds {
		f.Add(s[0], s[1])
	}
	f.Add("ſpouse", "spouse")
	f.Add("spouse", "ſpouse")
	f.Add("Zürich", "zurich")
	f.Add("zurich", "Zürich")
	f.Fuzz(func(t *testing.T, word, name string) {
		n := strsim.CompileName(name)
		score := n.Score(word)
		if score <= strsim.Damping {
			return
		}
		var nameInitials, wordInitials strsim.Initials
		nameInitials.AddName(n)
		wordInitials.Add(word)
		if !nameInitials.Meets(wordInitials) {
			t.Errorf("Score(%q) against %q = %v > Damping, but the initials do not meet", word, name, score)
		}
		wl := strings.ToLower(word)
		if word[0] >= 0x80 {
			return
		}
		for _, p := range strsim.SplitIdentifier(name) {
			if p = strings.ToLower(p); p[0] >= 0x80 || p[0] == wl[0] {
				return
			}
		}
		t.Errorf("Score(%q) against %q = %v > Damping, but no part begins with %q", word, name, score, wl[0])
	})
}
