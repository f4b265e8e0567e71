// Package postag assigns Penn Treebank part-of-speech tags to token
// sequences. It substitutes the Stanford CoreNLP tagger [2][3] the paper
// relies on: an embedded lexicon handles the closed classes and the
// domain vocabulary, a shape/suffix guesser handles unknown words, and a
// pass of contextual repair rules (in the spirit of Brill's
// transformation-based tagger) fixes the ambiguities that matter for
// dependency parsing of questions (VBD/VBN, NN/VB).
package postag

import (
	"strings"
	"unicode"
)

// Tagged pairs a token with its tag.
type Tagged struct {
	Word string
	Tag  string
}

// Tag tags a token sequence.
func Tag(words []string) []Tagged {
	out := make([]Tagged, len(words))
	for i, w := range words {
		out[i] = Tagged{Word: w, Tag: lexicalTag(w, i)}
	}
	applyContextRules(out)
	return out
}

// lexicalTag assigns the context-free tag.
func lexicalTag(w string, pos int) string {
	if w == "" {
		return "NN"
	}
	lower := strings.ToLower(w)
	if t, ok := lexicon[lower]; ok {
		// A capitalised lexicon word mid-sentence is still a proper noun
		// candidate, but for the QA vocabulary the lexicon wins (e.g.
		// sentence-initial "Which").
		return t
	}
	// Punctuation.
	r := []rune(w)
	if len(r) == 1 && !unicode.IsLetter(r[0]) && !unicode.IsDigit(r[0]) {
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
	if unicode.IsUpper(r[0]) {
		if strings.HasSuffix(lower, "s") && pos > 0 && len(w) > 3 && unicode.IsUpper(r[0]) && isPluralLooking(lower) {
			return "NNPS"
		}
		return "NNP"
	}
	return suffixGuess(lower)
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
func applyContextRules(ts []Tagged) {
	isAux := func(w string) bool {
		switch strings.ToLower(w) {
		case "is", "are", "was", "were", "be", "been", "being", "am",
			"has", "have", "had", "having":
			return true
		}
		return false
	}
	isDo := func(w string) bool {
		switch strings.ToLower(w) {
		case "do", "does", "did":
			return true
		}
		return false
	}

	for i := range ts {
		lower := strings.ToLower(ts[i].Word)

		// Rule: VBD after a passive/perfect auxiliary becomes VBN
		// ("is written", "was born", "has died").
		if ts[i].Tag == "VBD" {
			for j := i - 1; j >= 0 && j >= i-3; j-- {
				if isAux(ts[j].Word) {
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
				if isDo(ts[j].Word) || ts[j].Tag == "MD" {
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
			!unicode.IsUpper([]rune(ts[i].Word)[0]) && isLexiconVerb(lower) {
			ts[i].Tag = "VB"
		}

		// Rule: DT + VB* -> NN when a determiner directly precedes a word
		// tagged as verb ("the play", "a record").
		if i > 0 && ts[i-1].Tag == "DT" && strings.HasPrefix(ts[i].Tag, "VB") &&
			ts[i].Tag != "VBN" {
			ts[i].Tag = "NN"
		}

		// Rule: "how many/much" keeps many/much JJ; "many" after DT -> JJ
		// is already lexical.

		// Rule: word tagged NN directly after WRB "how" that is in the
		// adjective lexicon is JJ ("how tall"). Lexicon already carries
		// these; this repairs unknown adjectives by suffix only.
		_ = lower
	}
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
