// Package postag assigns Penn Treebank part-of-speech tags to token
// sequences. It substitutes the Stanford CoreNLP tagger [2][3] the paper
// relies on: an embedded lexicon handles the closed classes and the
// domain vocabulary, a shape/suffix guesser handles unknown words, and a
// pass of contextual repair rules (in the spirit of Brill's
// transformation-based tagger) fixes the ambiguities that matter for
// dependency parsing of questions (VBD/VBN, NN/VB).
//
// Tag writes each token's tag into the token record the tokenizer
// made, and reads the lower-case form the tokenizer computed: nothing
// here lower-cases a word again.
package postag

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/nlp/token"
)

// Tag tags a token sequence in place, setting each token's Tag.
func Tag(toks []token.Token) {
	for i := range toks {
		toks[i].Tag = lexicalTag(toks[i].Text, toks[i].Lower, i)
	}
	applyContextRules(toks)
}

// lexicalTag assigns the context-free tag of w, whose lower-case form
// is lower.
func lexicalTag(w, lower string, pos int) string {
	if w == "" {
		return "NN"
	}
	if t, ok := Lexicon(lower); ok {
		// A capitalised lexicon word mid-sentence is still a proper noun
		// candidate, but for the QA vocabulary the lexicon wins (e.g.
		// sentence-initial "Which").
		return t
	}
	first, size := utf8.DecodeRuneInString(w)
	// Punctuation.
	if size == len(w) && !unicode.IsLetter(first) && !unicode.IsDigit(first) {
		switch w {
		case "?", "!", ".":
			return "."
		case ",":
			return ","
		case ":", ";":
			return ":"
		default:
			return "SYM"
		}
	}
	// Numbers.
	if isNumber(w) {
		return "CD"
	}
	// Capitalised unknown word: proper noun. (Sentence-initial unknown
	// capitalised words are usually proper nouns in questions too, since
	// the question words are all in the lexicon.)
	if unicode.IsUpper(first) {
		if strings.HasSuffix(lower, "s") && pos > 0 && len(w) > 3 && isPluralLooking(lower) {
			return "NNPS"
		}
		return "NNP"
	}
	return suffixGuess(lower)
}

// Lexicon returns the lexicon's tag for a lower-case word.
func Lexicon(lower string) (string, bool) {
	t, ok := lexicon[lower]
	return t, ok
}

func isPluralLooking(lower string) bool {
	return strings.HasSuffix(lower, "es") || (strings.HasSuffix(lower, "s") &&
		!strings.HasSuffix(lower, "ss") && !strings.HasSuffix(lower, "us") &&
		!strings.HasSuffix(lower, "is"))
}

func isNumber(w string) bool {
	digits := 0
	for _, r := range w {
		switch {
		case unicode.IsDigit(r):
			digits++
		case r == '.' || r == ',' || r == '-' || r == '%':
		default:
			return false
		}
	}
	return digits > 0
}

// suffixGuess assigns a tag to an unknown lowercase word by morphology.
func suffixGuess(w string) string {
	switch {
	case strings.HasSuffix(w, "ing") && len(w) > 4:
		return "VBG"
	case strings.HasSuffix(w, "ed") && len(w) > 3:
		return "VBD"
	case strings.HasSuffix(w, "ly") && len(w) > 3:
		return "RB"
	case strings.HasSuffix(w, "tion") || strings.HasSuffix(w, "sion") ||
		strings.HasSuffix(w, "ment") || strings.HasSuffix(w, "ness") ||
		strings.HasSuffix(w, "ity") || strings.HasSuffix(w, "ship") ||
		strings.HasSuffix(w, "ance") || strings.HasSuffix(w, "ence"):
		return "NN"
	case strings.HasSuffix(w, "ous") || strings.HasSuffix(w, "ful") ||
		strings.HasSuffix(w, "ive") || strings.HasSuffix(w, "ible") ||
		strings.HasSuffix(w, "able") || strings.HasSuffix(w, "ical") ||
		strings.HasSuffix(w, "ish") || strings.HasSuffix(w, "less"):
		return "JJ"
	case strings.HasSuffix(w, "est") && len(w) > 4:
		return "JJS"
	case strings.HasSuffix(w, "er") && len(w) > 4:
		// -er is noun-forming (writer) more often than comparative in
		// our domain; context rules can still repair.
		return "NN"
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return "NNS"
	case strings.HasSuffix(w, "s") && len(w) > 3 && !strings.HasSuffix(w, "ss") &&
		!strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
		return "NNS"
	default:
		return "NN"
	}
}

// applyContextRules runs the transformation pass over the tagged sequence.
func applyContextRules(ts []token.Token) {
	isAux := func(lower string) bool {
		switch lower {
		case "is", "are", "was", "were", "be", "been", "being", "am",
			"has", "have", "had", "having":
			return true
		}
		return false
	}
	isDo := func(lower string) bool {
		switch lower {
		case "do", "does", "did":
			return true
		}
		return false
	}

	for i := range ts {
		lower := ts[i].Lower

		// Rule: VBD after a passive/perfect auxiliary becomes VBN
		// ("is written", "was born", "has died").
		if ts[i].Tag == "VBD" {
			for j := i - 1; j >= 0 && j >= i-3; j-- {
				if isAux(ts[j].Lower) {
					ts[i].Tag = "VBN"
					break
				}
				if ts[j].Tag != "RB" && ts[j].Tag != "DT" && ts[j].Tag != "NNP" &&
					ts[j].Tag != "NN" && ts[j].Tag != "NNS" && ts[j].Tag != "PRP" {
					break
				}
			}
		}

		// Rule: base verb after do-support or a modal keeps/becomes VB
		// ("did ... die", "does ... have", "can ... find").
		if ts[i].Tag == "NN" || ts[i].Tag == "VBP" || ts[i].Tag == "VBD" {
			for j := i - 1; j >= 0; j-- {
				if isDo(ts[j].Lower) || ts[j].Tag == "MD" {
					// Only if there is no other verb between.
					verbBetween := false
					for k := j + 1; k < i; k++ {
						if strings.HasPrefix(ts[k].Tag, "VB") {
							verbBetween = true
							break
						}
					}
					if !verbBetween && isKnownVerbForm(lower) {
						ts[i].Tag = "VB"
					}
					break
				}
				if ts[j].Tag == "." {
					break
				}
			}
		}

		// Rule: TO + word -> VB when the word can be a verb. Proper nouns
		// and already-verbal tags are left alone ("married to Barack").
		if i > 0 && ts[i-1].Tag == "TO" &&
			(ts[i].Tag == "NN" || ts[i].Tag == "VBP" || ts[i].Tag == "NNS") &&
			!startsUpper(ts[i].Text) && isLexiconVerb(lower) {
			ts[i].Tag = "VB"
		}

		// Rule: DT + VB* -> NN when a determiner directly precedes a word
		// tagged as verb ("the play", "a record").
		if i > 0 && ts[i-1].Tag == "DT" && strings.HasPrefix(ts[i].Tag, "VB") &&
			ts[i].Tag != "VBN" {
			ts[i].Tag = "NN"
		}
	}
}

// startsUpper reports whether w's first rune is upper case.
func startsUpper(w string) bool {
	r, _ := utf8.DecodeRuneInString(w)
	return unicode.IsUpper(r)
}

// isLexiconVerb reports whether the lexicon lists a verbal reading.
func isLexiconVerb(lower string) bool {
	t, ok := lexicon[lower]
	if !ok {
		return false
	}
	return strings.HasPrefix(t, "VB") || ambiguousNounVerbs[lower]
}

// ambiguousNounVerbs lists lexicon words whose dominant tag is nominal
// but which verb freely in questions.
var ambiguousNounVerbs = map[string]bool{
	"author": true, "star": true, "border": true, "name": true,
	"work": true, "measure": true, "cost": true, "end": true,
	"record": true, "host": true, "play": true, "run": true,
	"live": true, "die": true, "found": true, "design": true,
}

// isKnownVerbForm reports whether the word could be a verb: it is a verb
// in the lexicon, or morphology suggests one.
func isKnownVerbForm(lower string) bool {
	if t, ok := lexicon[lower]; ok {
		return strings.HasPrefix(t, "VB") || lower == "author" || lower == "star" ||
			lower == "border" || lower == "name" || lower == "work" ||
			lower == "measure" || lower == "cost" || lower == "end" ||
			lower == "record" || lower == "host" || lower == "play" ||
			lower == "run" || lower == "live" || lower == "die" || lower == "found"
	}
	// Unknown: assume verbs are possible for short non-derived words.
	return !strings.HasSuffix(lower, "tion") && !strings.HasSuffix(lower, "ness") &&
		!strings.HasSuffix(lower, "ity")
}
