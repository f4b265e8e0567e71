package strsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// The rune-slice Jaro and Jaro-Winkler this package shipped before the
// allocation-free kernel, kept verbatim as the oracle the kernel must
// equal bit for bit.

func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window
		if hi > lb-1 {
			hi = lb - 1
		}
		for j := lo; j <= hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i], matchedB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	k := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[k] {
			k++
		}
		if ra[i] != rb[k] {
			trans++
		}
		k++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// refTokenOverlap is the map-based Jaccard TokenOverlap used to be.
func refTokenOverlap(a, b string) float64 {
	ta := strings.Fields(strings.ToLower(a))
	tb := strings.Fields(strings.ToLower(b))
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	set := map[string]int{}
	for _, t := range ta {
		set[t] |= 1
	}
	for _, t := range tb {
		set[t] |= 2
	}
	inter, union := 0, 0
	for _, v := range set {
		union++
		if v == 3 {
			inter++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func checkJaro(t testing.TB, a, b string) {
	t.Helper()
	if got, want := Jaro(a, b), refJaro(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
	}
	if got, want := JaroWinkler(a, b), refJaroWinkler(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("JaroWinkler(%q, %q) = %v, reference %v", a, b, got, want)
	}
}

// jaroSeeds are the shapes the kernel branches on: empty, equal,
// transposed, prefix of the other, the 64-byte kernel limit and one past
// it, non-ASCII, invalid UTF-8, a shared first byte of different runes.
var jaroSeeds = [][2]string{
	{"", ""}, {"abc", ""}, {"", "abc"}, {"a", "a"}, {"a", "b"},
	{"MARTHA", "MARHTA"}, {"dixon", "dicksonx"}, {"jellyfish", "smellyfish"},
	{"synth person", "synth person 0123"}, {"synth person 0123", "synth person"},
	{"orhan pamukk", "orhan pamuk"}, {"aaaa", "aaaaaaaa"}, {"abab", "baba"},
	{strings.Repeat("ab", 32), strings.Repeat("ba", 32)},
	{strings.Repeat("ab", 32) + "c", strings.Repeat("ab", 32)},
	{strings.Repeat("x", 200), strings.Repeat("x", 120) + "y"},
	{"zürich", "zurich"}, {"zürich", "zürich hb"}, {"čapek", "ćapek"}, {"ünal", "üna"},
	{"a\xffb", "a\xfeb"}, {"\xc3", "\xc3\xa9"}, {"日本語", "日本"},
}

func TestJaroWinklerMatchesReference(t *testing.T) {
	for _, s := range jaroSeeds {
		checkJaro(t, s[0], s[1])
	}
	// Random pairs over a small alphabet (many matches, many
	// transpositions) and lengths around the kernel's 64-byte limit.
	rng := rand.New(rand.NewSource(14))
	alphabet := []rune("abcde fé")
	gen := func() string {
		n := rng.Intn(12)
		if rng.Intn(10) == 0 {
			n = 58 + rng.Intn(12)
		}
		r := make([]rune, n)
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	for i := 0; i < 20000; i++ {
		a := gen()
		b := gen()
		if rng.Intn(4) == 0 && len(a) > 0 { // a one-edit neighbour
			r := []rune(a)
			r[rng.Intn(len(r))] = alphabet[rng.Intn(len(alphabet))]
			b = string(r)
		}
		checkJaro(t, a, b)
	}
}

func TestPrefixJaroWinklerMatchesReference(t *testing.T) {
	for _, b := range []string{"a", "synth person 0123", "zürich hb", strings.Repeat("ab", 40)} {
		rb := []rune(b)
		for la := 1; la <= len(rb); la++ {
			a := string(rb[:la])
			if got, want := PrefixJaroWinkler(la, len(rb)), refJaroWinkler(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("PrefixJaroWinkler(%d, %d) = %v, reference JaroWinkler(%q, %q) = %v", la, len(rb), got, a, b, want)
			}
		}
	}
}

func TestTokenOverlapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	words := []string{"largest", "city", "City", "official", "language", "of", "", " ", "É"}
	gen := func() string {
		var sb strings.Builder
		for i, n := 0, rng.Intn(5); i < n; i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	for i := 0; i < 2000; i++ {
		a, b := gen(), gen()
		if got, want := TokenOverlap(a, b), refTokenOverlap(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("TokenOverlap(%q, %q) = %v, reference %v", a, b, got, want)
		}
	}
}

// FuzzJaroWinkler: the kernel equals the rune reference on any pair of
// byte strings, valid UTF-8 or not, and never panics.
func FuzzJaroWinkler(f *testing.F) {
	for _, s := range jaroSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkJaro(t, a, b)
		if utf8.ValidString(a) && strings.HasPrefix(b, a) && a != "" {
			la, lb := utf8.RuneCountInString(a), len([]rune(b))
			if got, want := PrefixJaroWinkler(la, lb), refJaroWinkler(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("PrefixJaroWinkler(%d, %d) = %v, reference JaroWinkler(%q, %q) = %v", la, lb, got, a, b, want)
			}
		}
	})
}
