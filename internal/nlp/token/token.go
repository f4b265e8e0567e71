// Package token implements the English tokenizer at the front of the
// NLP stack. It substitutes for the tokenisation stage of Stanford
// CoreNLP used by the paper: words, numbers, punctuation and clitics
// ("'s", "n't") become separate tokens with byte offsets into the input.
package token

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is one token with its source span.
type Token struct {
	Text  string
	Start int // byte offset of the first byte
	End   int // byte offset one past the last byte
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

	out := make([]Token, 0, len(runes)/4+2)
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
			out = appendWordWithClitics(out, text[byteOff[start]:byteOff[i]], byteOff[start])
		default:
			out = append(out, Token{Text: text[byteOff[i]:byteOff[i+1]], Start: byteOff[i], End: byteOff[i+1]})
			i++
		}
	}
	return out
}

// Words returns just the token texts.
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
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
func appendWordWithClitics(out []Token, word string, start int) []Token {
	switch {
	case len(word) > 2 && hasSuffixFold(word, "'s"):
		head := word[:len(word)-2]
		out = append(out, Token{Text: head, Start: start, End: start + len(head)})
		out = append(out, Token{Text: word[len(word)-2:], Start: start + len(head), End: start + len(word)})
	case len(word) > 3 && hasSuffixFold(word, "n't"):
		head := word[:len(word)-3]
		out = append(out, Token{Text: head, Start: start, End: start + len(head)})
		out = append(out, Token{Text: word[len(word)-3:], Start: start + len(head), End: start + len(word)})
	default:
		out = append(out, Token{Text: word, Start: start, End: start + len(word)})
	}
	return out
}

// hasSuffixFold reports whether word ends with the lower-case ASCII
// suffix in either case. No other rune lower-cases to ', n, s or t, so
// it agrees with strings.HasSuffix(strings.ToLower(word), suffix).
func hasSuffixFold(word, suffix string) bool {
	return len(word) >= len(suffix) && strings.EqualFold(word[len(word)-len(suffix):], suffix)
}
