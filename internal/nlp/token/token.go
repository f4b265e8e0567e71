// Package token implements the English tokenizer at the front of the
// NLP stack. It substitutes for the tokenisation stage of Stanford
// CoreNLP used by the paper: words, numbers, punctuation and clitics
// ("'s", "n't") become separate tokens with byte offsets into the input.
//
// A Token is the one record the whole §2.1 stack keeps per word: the
// tokenizer fills its text, lower-case form and offsets, postag.Tag its
// tag and lemma.Fill its lemma, in place, and depparse's graph nodes
// are the same array. Each word is lower-cased once, here, and every
// later stage reads Lower.
package token

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is one token with its source span, and the tag and lemma the
// later stages fill in.
type Token struct {
	Text  string // the surface form
	Lower string // strings.ToLower(Text)
	Tag   string // Penn Treebank tag, set by postag.Tag
	Lemma string // set by lemma.Fill
	Start int    // byte offset of the first byte
	End   int    // byte offset one past the last byte
}

// span is a token's byte range in the text and the end of its
// lower-case form in Tokenize's lowered bytes (-1 when the text is
// already lower-case).
type span struct {
	start, end, lowEnd int
}

// Tokenize splits text into tokens. The rules cover interrogative English:
//   - runs of letters/digits (plus interior hyphens, periods in
//     initialisms like "D.C." and digits like "3.77") form words
//   - the possessive clitic 's and the negation n't split off
//   - all other punctuation becomes single-character tokens
func Tokenize(text string) []Token {
	if !utf8.ValidString(text) {
		// Each invalid byte becomes U+FFFD: tokenise (and measure
		// offsets in) the text those runes spell.
		text = string([]rune(text))
	}
	// The runes and their byte offsets, on the stack for a question of
	// ordinary length; every token text is a substring of text.
	var runeBuf [256]rune
	var offBuf [257]int
	runes, byteOff := runeBuf[:0], offBuf[:0]
	for off, r := range text {
		runes = append(runes, r)
		byteOff = append(byteOff, off)
	}
	byteOff = append(byteOff, len(text))

	// The spans first, on the stack, so the tokens are one array of
	// the right length.
	var spanBuf [64]span
	spans := spanBuf[:0]
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case isWordRune(r):
			start := i
			for i < len(runes) && isWordContinuation(runes, i) {
				i++
			}
			spans = appendWordWithClitics(spans, text[byteOff[start]:byteOff[i]], byteOff[start])
		default:
			spans = append(spans, span{start: byteOff[i], end: byteOff[i+1]})
			i++
		}
	}

	// Every lower-case form that differs from its text goes into one
	// string; each token is lowered by itself, since lower-casing can
	// change a rune's byte length ("İ" is 2 bytes, "i" 1).
	var lowBuf [256]byte
	low := lowBuf[:0]
	for k := range spans {
		sp := &spans[k]
		n := len(low)
		low = appendLower(low, text[sp.start:sp.end])
		sp.lowEnd = -1
		if len(low) > n {
			sp.lowEnd = len(low)
		}
	}
	lowered := string(low)
	out := make([]Token, len(spans))
	from := 0
	for k, sp := range spans {
		t := &out[k]
		t.Text, t.Start, t.End = text[sp.start:sp.end], sp.start, sp.end
		t.Lower = t.Text
		if sp.lowEnd >= 0 {
			t.Lower, from = lowered[from:sp.lowEnd], sp.lowEnd
		}
	}
	return out
}

// appendLower appends strings.ToLower(w) to dst when it differs from w,
// and leaves dst as it is otherwise. w is valid UTF-8.
func appendLower(dst []byte, w string) []byte {
	i := 0
	for i < len(w) && w[i] < utf8.RuneSelf && (w[i] < 'A' || 'Z' < w[i]) {
		i++
	}
	if i == len(w) {
		return dst // ASCII with no upper-case letter
	}
	n, changed := len(dst), false
	dst = append(dst, w[:i]...)
	for _, r := range w[i:] {
		l := unicode.ToLower(r)
		changed = changed || l != r
		dst = utf8.AppendRune(dst, l)
	}
	if !changed {
		return dst[:n]
	}
	return dst
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isWordContinuation reports whether runes[i] continues the word that
// started earlier: letters and digits always; '-' between letters;
// '.' in initialisms (single letter before, letter after) or decimals
// (digits on both sides); '\” only as part of clitics handled later.
func isWordContinuation(runes []rune, i int) bool {
	r := runes[i]
	if isWordRune(r) {
		return true
	}
	prevOK := i > 0 && isWordRune(runes[i-1])
	nextOK := i+1 < len(runes) && isWordRune(runes[i+1])
	switch r {
	case '-':
		return prevOK && nextOK
	case '.':
		if !prevOK || !nextOK {
			// Allow trailing '.' of an initialism: "D.C." — previous two
			// runes are ".X".
			if prevOK && i >= 2 && runes[i-2] == '.' && unicode.IsUpper(runes[i-1]) {
				return true
			}
			return false
		}
		// Decimal number "3.77".
		if unicode.IsDigit(runes[i-1]) && unicode.IsDigit(runes[i+1]) {
			return true
		}
		// Initialism "D.C": single capital before the dot and a capital after.
		if unicode.IsUpper(runes[i-1]) && unicode.IsUpper(runes[i+1]) &&
			(i < 2 || !unicode.IsLetter(runes[i-2])) {
			return true
		}
		// Continue initialisms beyond the first pair: "U.S.A".
		if unicode.IsUpper(runes[i-1]) && i >= 2 && runes[i-2] == '.' {
			return true
		}
		return false
	case '\'':
		// Keep apostrophe inside the word here; clitic splitting happens
		// in appendWordWithClitics ("O'Brien" stays whole).
		return prevOK && nextOK
	}
	return false
}

// appendWordWithClitics splits possessive 's and n't clitics off a word.
func appendWordWithClitics(out []span, word string, start int) []span {
	end := start + len(word)
	switch {
	case len(word) > 2 && hasSuffixFold(word, "'s"):
		out = append(out, span{start: start, end: end - 2}, span{start: end - 2, end: end})
	case len(word) > 3 && hasSuffixFold(word, "n't"):
		out = append(out, span{start: start, end: end - 3}, span{start: end - 3, end: end})
	default:
		out = append(out, span{start: start, end: end})
	}
	return out
}

// hasSuffixFold reports whether word ends with the lower-case ASCII
// suffix in either case. No other rune lower-cases to ', n, s or t, so
// it agrees with strings.HasSuffix(strings.ToLower(word), suffix).
func hasSuffixFold(word, suffix string) bool {
	return len(word) >= len(suffix) && strings.EqualFold(word[len(word)-len(suffix):], suffix)
}
