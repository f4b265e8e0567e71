// Package strsim implements the string similarity measures used by the
// entity and property extraction stage (§2.2 of the paper).
//
// The paper's primary metric is the "greatest common subsequence" score:
// the length of the longest common subsequence between a question word
// and a property name, divided by the length of the question word, with a
// containment guard that rejects accidental substring hits such as the
// property "taxiDriver" encapsulating the word "river". Jaro-Winkler is
// provided for the named-entity disambiguation stage.
//
// Built once at boot: a schema name is split and folded by CompileName,
// a label's tokens by Tokens; callers keep the results beside the
// schema. Paid per question: Name.Score, Jaccard and JaroWinkler read
// those and the question's own words, allocate nothing for the inputs a
// KB has in practice, and keep no state — a phrase never seen costs
// what a repeated one does.
package strsim

import (
	"math/bits"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// asciiOnly reports whether s contains only ASCII bytes.
func asciiOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// lowerASCII folds one ASCII byte to lower case.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

const lcsStackLen = 64

// LCSLength returns the length of the longest common subsequence of a and
// b, computed case-insensitively over runes.
func LCSLength(a, b string) int {
	if asciiOnly(a) && asciiOnly(b) {
		return lcsASCII(a, b)
	}
	ra := []rune(strings.ToLower(a))
	rb := []rune(strings.ToLower(b))
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	// Two-row dynamic program.
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// lcsASCII is LCSLength for pure-ASCII inputs: bytes are the runes, the
// case fold is a byte op, and short inputs run the dynamic program on
// stack rows. Name.Score takes it only for names its bit-parallel
// kernel cannot hold; it is also the reference that kernel is tested
// against.
func lcsASCII(a, b string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var rowBuf [2 * lcsStackLen]int
	var prev, cur []int
	if len(b)+1 <= lcsStackLen {
		prev, cur = rowBuf[:len(b)+1], rowBuf[lcsStackLen:lcsStackLen+len(b)+1]
	} else {
		prev = make([]int, len(b)+1)
		cur = make([]int, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		ca := lowerASCII(a[i-1])
		for j := 1; j <= len(b); j++ {
			if ca == lowerASCII(b[j-1]) {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// GCSScore is the paper's greatest-common-subsequence score for matching
// a question word against a candidate property name: LCS(word, name)
// divided by len(word). A score of 1.0 means every character of the word
// appears, in order, inside the candidate.
func GCSScore(word, candidate string) float64 {
	var n int
	if asciiOnly(word) {
		n = len(word)
	} else {
		n = utf8.RuneCountInString(strings.ToLower(word))
	}
	if n == 0 {
		return 0
	}
	return float64(LCSLength(word, candidate)) / float64(n)
}

// foldLower is strings.ToLower that returns s unchanged (no allocation)
// when it is already lower-case ASCII.
func foldLower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || ('A' <= c && c <= 'Z') {
			return strings.ToLower(s)
		}
	}
	return s
}

// Name is a property name compiled for scoring: its lower-cased
// camelCase parts are split once, when the schema is loaded, so each
// question word pays only for its own comparison.
type Name struct {
	raw   string
	parts []string
	// match[c] has bit j set where raw[j] is the byte c in either case:
	// the match masks of the bit-parallel LCS. Nil for a name that is
	// empty, longer than 64 bytes or not ASCII.
	match *[utf8.RuneSelf]uint64
}

// splitName is a Name without match masks, whose Score runs the dynamic
// program: what a name scored once is worth preparing.
func splitName(name string) Name {
	parts := SplitIdentifier(name)
	for i, p := range parts {
		parts[i] = foldLower(p)
	}
	return Name{raw: name, parts: parts}
}

// CompileName splits and folds name once and builds its match masks.
func CompileName(name string) Name {
	n := splitName(name)
	if len(name) > 0 && len(name) <= 64 && asciiOnly(name) {
		n.match = new([utf8.RuneSelf]uint64)
		for j := 0; j < len(name); j++ {
			c := lowerASCII(name[j])
			n.match[c] |= 1 << j
			if 'a' <= c && c <= 'z' {
				n.match[c-('a'-'A')] |= 1 << j
			}
		}
	}
	return n
}

// lcs is LCSLength(word, n.raw) by the bit-parallel recurrence of
// Allison–Dix and Hyyrö: one machine word holds a whole row of the
// dynamic program (bit j is clear where the row steps up at column j),
// so a question word costs one add, one subtract and two logic ops per
// byte whatever the name's length. ok is false when the name has no
// masks or the word is not ASCII; the caller then takes LCSLength.
func (n Name) lcs(word string) (length int, ok bool) {
	if n.match == nil {
		return 0, false
	}
	v := ^uint64(0)
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return 0, false
		}
		u := v & n.match[c]
		v = (v + u) | (v - u)
	}
	return bits.OnesCount64(^v << (64 - len(n.raw))), true
}

// Contains reports whether word occurs in the name aligned to
// camelCase/word boundaries. This is the containment guard from §2.2.1:
// "river" scores 1.0 against "taxiDriver" by raw subsequence, but it does
// not start at a word boundary, so the guard rejects it, while "writer"
// against "writer" or "place" against "birthPlace" pass.
func (n Name) Contains(word string) bool {
	for _, part := range n.parts {
		if strings.EqualFold(part, word) {
			return true
		}
	}
	return false
}

// Score combines the GCS score with the word-boundary guard, as the
// paper's property matcher does: exact word-boundary containment is a
// perfect match; otherwise the GCS score applies but is damped unless the
// name's first word shares a prefix with the query word, eliminating
// the "taxiDriver"/"river" class of miscalculation.
func (n Name) Score(word string) float64 {
	if word == "" || n.raw == "" {
		return 0
	}
	if n.Contains(word) {
		return 1.0
	}
	var score float64
	if l, ok := n.lcs(word); ok {
		score = float64(l) / float64(len(word))
	} else {
		score = GCSScore(word, n.raw)
	}
	if score == 0 {
		return 0
	}
	// Require that the match plausibly aligns with some identifier word:
	// at least one camelCase part of the candidate must share a 3+ letter
	// prefix (or stem overlap) with the query word. The stem-overlap
	// arm demands at least one shared letter: for a one-letter word
	// len(wl)-1 is 0, which every candidate trivially satisfies,
	// letting any accidental subsequence escape the damping.
	wl := foldLower(word)
	for _, p := range n.parts {
		if sp := sharedPrefix(wl, p); sp >= 3 || (sp >= 1 && sp >= len(wl)-1) {
			return score
		}
	}
	return score * Damping
}

// Damping is the factor Score applies to a GCS score whose match no
// part of the name aligns with: heavy, so accidental subsequences lose.
// A GCS score is at most 1, so a damped score is at most Damping.
const Damping = 0.25

// Initials is a set of first bytes, bit c for the ASCII byte c folded
// to lower case. It bounds Score: above Damping a name scores only
// through a part that equals the word (Contains) or shares a prefix with
// it, so the initials of its parts hold the word's. EqualFold matches ſ
// with s and the Kelvin sign with k, so a word or part that begins with
// a non-ASCII byte fills the set.
type Initials [2]uint64

// Add puts the first byte of word in the set.
func (s *Initials) Add(word string) {
	switch {
	case word == "":
	case word[0] >= utf8.RuneSelf:
		*s = Initials{^uint64(0), ^uint64(0)}
	default:
		c := lowerASCII(word[0])
		s[c/64] |= 1 << (c % 64)
	}
}

// AddName puts the first bytes of n's parts in the set.
func (s *Initials) AddName(n Name) {
	for _, p := range n.parts {
		s.Add(p)
	}
}

// AddTokens puts the first bytes of a Tokens result in the set: two
// token sets with a nonzero Jaccard share a token, or are both empty,
// which fills the set.
func (s *Initials) AddTokens(tokens []string) {
	if len(tokens) == 0 {
		*s = Initials{^uint64(0), ^uint64(0)}
	}
	for _, t := range tokens {
		s.Add(t)
	}
}

// Meets reports whether the two sets share a byte.
func (s Initials) Meets(t Initials) bool { return s[0]&t[0]|s[1]&t[1] != 0 }

func sharedPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// SplitIdentifier splits a camelCase or snake_case identifier into its
// lowercase word parts: "birthPlace" -> ["birth", "Place"],
// "populationTotal" -> ["population", "Total"].
func SplitIdentifier(s string) []string {
	var parts []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			parts = append(parts, string(cur))
			cur = cur[:0]
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case r == '_' || r == '-' || r == ' ':
			flush()
		case unicode.IsUpper(r):
			// Start a new part on lower->Upper transitions and on
			// Upper->Upper followed by lower (e.g. "HTTPServer").
			if i > 0 && (unicode.IsLower(runes[i-1]) ||
				(i+1 < len(runes) && unicode.IsLower(runes[i+1]) && unicode.IsUpper(runes[i-1]))) {
				flush()
			}
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return parts
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard 0.1
// prefix scale and prefix cap of 4.
func JaroWinkler(a, b string) float64 {
	sim, prefix := jaroOf(a, b)
	return winkler(sim, min(prefix, 4))
}

// jaroOf returns the Jaro similarity of a and b and the number of
// leading runes they share. ASCII inputs of up to 64 bytes each — every
// gazetteer label in practice — are compared without allocating.
func jaroOf(a, b string) (sim float64, prefix int) {
	if len(a) <= 64 && len(b) <= 64 && asciiOnly(a) && asciiOnly(b) {
		var bufA, bufB [64]byte
		return jaro(bufA[:copy(bufA[:], a)], bufB[:copy(bufB[:], b)])
	}
	return jaro([]rune(a), []rune(b))
}

func jaro[E byte | rune](a, b []E) (sim float64, prefix int) {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1, 0
	}
	if la == 0 || lb == 0 {
		return 0, 0
	}
	// The two match sets are bit sets, on the stack up to 64 elements.
	var buf [2]uint64
	sets := buf[:]
	if wa, wb := (la+63)/64, (lb+63)/64; wa+wb > len(sets) {
		sets = make([]uint64, wa+wb)
	}
	matchedA, matchedB := sets[:(la+63)/64], sets[(la+63)/64:]
	// A shared prefix matches position by position — every earlier j is
	// taken, j = i is free and equal — without transpositions, so the
	// search and the sets start after it.
	for prefix < la && prefix < lb && a[prefix] == b[prefix] {
		prefix++
	}
	window := max(max(la, lb)/2-1, 0)
	matches := prefix
	for i := prefix; i < la; i++ {
		for j, hi := max(prefix, i-window), min(lb-1, i+window); j <= hi; j++ {
			if matchedB[uint(j)/64]&(1<<(uint(j)%64)) == 0 && a[i] == b[j] {
				matchedA[uint(i)/64] |= 1 << (uint(i) % 64)
				matchedB[uint(j)/64] |= 1 << (uint(j) % 64)
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0, 0
	}
	// Count transpositions: the r-th matched element of a pairs with the
	// r-th matched element of b.
	trans := 0
	for i, k := prefix, prefix; i < la; i++ {
		if matchedA[uint(i)/64]&(1<<(uint(i)%64)) == 0 {
			continue
		}
		for matchedB[uint(k)/64]&(1<<(uint(k)%64)) == 0 {
			k++
		}
		if a[i] != b[k] {
			trans++
		}
		k++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3, prefix
}

func winkler(jaro float64, prefix int) float64 {
	return jaro + float64(prefix)*0.1*(1-jaro)
}

// PrefixJaroWinkler is JaroWinkler(a, b) for an a of la ≥ 1 runes that is
// a prefix of a b of lb runes, without reading either: every rune of a
// then matches the rune of b at its own position, in order.
func PrefixJaroWinkler(la, lb int) float64 {
	m := float64(la)
	return winkler((1+m/float64(lb)+1)/3, min(la, 4))
}

// Tokens returns the distinct lower-cased whitespace tokens of s.
func Tokens(s string) []string {
	var out []string
	for _, t := range strings.Fields(strings.ToLower(s)) {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// Jaccard returns |a ∩ b| / |a ∪ b| of two Tokens results; 1.0 for two
// empty ones.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for _, t := range a {
		if slices.Contains(b, t) {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
