// Package lemma reduces inflected English word forms to their lemmas.
// The dependency-to-triple stage and the relational pattern store both
// key on lemmas ("written" and "writes" must both reach "write", the
// paper's §2.2.3 counts "die" across "died"/"dies"/"dying" pattern
// occurrences).
//
// Fill writes each token's lemma into the token record the tokenizer
// made, from the lower-case form the tokenizer computed.
package lemma

import (
	"strings"

	"repro/internal/nlp/token"
)

// irregular maps inflected verb forms to lemmas for the verbs the
// domain uses, under any tag; regular morphology falls through to the
// rules below.
var irregular = map[string]string{
	// be/have/do
	"is": "be", "are": "be", "was": "be", "were": "be", "been": "be",
	"being": "be", "am": "be",
	"has": "have", "had": "have", "having": "have",
	"does": "do", "did": "do", "done": "do",

	// Verbs of the domain.
	"wrote": "write", "written": "write",
	"bore": "bear", "born": "bear", "borne": "bear",
	"died": "die", "dying": "die", "dies": "die",
	"led": "lead", "won": "win", "ran": "run",
	"grew": "grow", "grown": "grow",
	"spoke": "speak", "spoken": "speak",
	"began": "begin", "begun": "begin",
	"came": "come", "went": "go", "gone": "go",
	"took": "take", "taken": "take",
	"gave": "give", "given": "give",
	"made": "make", "got": "get", "gotten": "get",
	"said": "say", "saw": "see", "seen": "see",
	"held": "hold", "built": "build",
	"sang": "sing", "sung": "sing",
	"knew": "know", "known": "know",
	"founded": "found", "met": "meet", "left": "leave", "lost": "lose",
	"wed": "wed", "married": "marry", "marries": "marry", "lain": "lie",
	"felt": "feel", "kept": "keep", "meant": "mean",
	"paid": "pay", "sold": "sell", "told": "tell",
	"stood": "stand", "understood": "understand",
	"became": "become",
}

// pastForms are past-tense forms that are also the base form of another
// verb ("found" a company, "lay" a table): they reduce only under a
// past-tense tag or an unknown one.
var pastForms = map[string]string{"found": "find", "lay": "lie"}

// nouns maps irregular plurals to their singulars. They apply only to
// a plural noun or an unknown tag: "lives" under VBZ is "live".
var nouns = map[string]string{
	"people": "person", "children": "child", "men": "man", "women": "woman",
	"wives": "wife", "lives": "life", "cities": "city",
	"countries": "country", "companies": "company", "parties": "party",
	"universities": "university", "movies": "movie", "studies": "study",
	"feet": "foot", "teeth": "tooth", "mice": "mouse", "geese": "goose",
	"headquarters": "headquarters", "series": "series", "species": "species",
}

// noStrip lists words ending in s that are not plurals/3sg.
var noStrip = map[string]bool{
	"always": true, "perhaps": true, "news": true, "mathematics": true,
	"physics": true, "politics": true, "this": true, "his": true,
	"its": true, "is": true, "was": true, "does": true, "has": true,
	"as": true, "us": true, "yes": true, "pamuk's": true,
	"gas": true, "alias": true, "canvas": true, "atlas": true,
	"bias": true, "chaos": true, "lens": true, "census": true,
}

// Fill sets each token's Lemma from its text, lower-case form and tag.
func Fill(toks []token.Token) {
	for i := range toks {
		toks[i].Lemma = lemmatize(toks[i].Text, toks[i].Lower, toks[i].Tag)
	}
}

// lemmatize returns the lemma of word, whose lower-case form is lower.
// The POS tag ("NN", "VBZ", ...) guides suffix stripping; "" means
// unknown.
func lemmatize(word, lower, tag string) string {
	if l, ok := irregular[lower]; ok {
		return l
	}
	if l, ok := pastForms[lower]; ok && (tag == "VBD" || tag == "VBN" || tag == "") {
		return l
	}
	if l, ok := nouns[lower]; ok && (tag == "NNS" || tag == "") {
		return l
	}
	switch {
	case strings.HasPrefix(tag, "NNP"):
		return word // proper nouns keep their form (and case)
	case tag == "NNS" || tag == "VBZ" || (tag == "" && plausiblePlural(lower)):
		return stripS(lower)
	case tag == "VBD" || tag == "VBN":
		return stripEd(lower)
	case tag == "VBG":
		return stripIng(lower)
	default:
		return lower
	}
}

func plausiblePlural(w string) bool {
	return strings.HasSuffix(w, "s") && !noStrip[w] && len(w) > 3
}

func stripS(w string) string {
	switch {
	case noStrip[w] || !strings.HasSuffix(w, "s") || len(w) <= 2:
		return w
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return w[:len(w)-3] + "y"
	case strings.HasSuffix(w, "sses") || strings.HasSuffix(w, "shes") ||
		strings.HasSuffix(w, "ches") || strings.HasSuffix(w, "xes") ||
		strings.HasSuffix(w, "zes") || strings.HasSuffix(w, "oes"):
		return w[:len(w)-2]
	case strings.HasSuffix(w, "ss") || strings.HasSuffix(w, "us") ||
		strings.HasSuffix(w, "is"):
		return w
	default:
		return w[:len(w)-1]
	}
}

// knownLemmas lists the verb lemmas of the domain vocabulary; the suffix
// strippers consult it before falling back to orthographic heuristics
// (English silent-e restoration is not decidable without a dictionary).
var knownLemmas = map[string]bool{
	"write": true, "create": true, "reside": true, "compose": true,
	"release": true, "produce": true, "locate": true, "situate": true,
	"direct": true, "paint": true, "develop": true, "visit": true,
	"invent": true, "discover": true, "establish": true, "record": true,
	"perform": true, "live": true, "die": true, "star": true, "play": true,
	"act": true, "found": true, "start": true, "own": true, "lead": true,
	"govern": true, "marry": true, "graduate": true, "attend": true,
	"serve": true, "host": true, "measure": true, "weigh": true,
	"border": true, "flow": true, "cross": true, "contain": true,
	"include": true, "belong": true, "appear": true, "remain": true,
	"end": true, "publish": true, "speak": true, "study": true,
	"work": true, "design": true, "call": true, "name": true,
	"author": true, "pen": true, "run": true, "stop": true, "wed": true,
	"move": true, "receive": true, "win": true, "earn": true,
	"feature": true, "broadcast": true, "translate": true, "base": true,
}

func stripEd(w string) string {
	if !strings.HasSuffix(w, "ed") || len(w) <= 3 {
		return w
	}
	stem := w[:len(w)-2]
	if strings.HasSuffix(w, "ied") && len(w) > 4 {
		return w[:len(w)-3] + "y" // studied -> study
	}
	return resolveStem(stem)
}

func stripIng(w string) string {
	if !strings.HasSuffix(w, "ing") || len(w) <= 4 {
		return w
	}
	return resolveStem(w[:len(w)-3])
}

// resolveStem chooses between stem, stem+"e" and the de-doubled stem,
// consulting the lemma dictionary first and heuristics second.
func resolveStem(stem string) string {
	if knownLemmas[stem] {
		return stem // direct(ed), paint(ed), develop(ed)
	}
	if knownLemmas[stem+"e"] {
		return stem + "e" // creat(ed) -> create, writ(ing) -> write
	}
	if len(stem) >= 3 && stem[len(stem)-1] == stem[len(stem)-2] &&
		isConsonant(stem[len(stem)-1]) {
		if dedoubled := stem[:len(stem)-1]; knownLemmas[dedoubled] {
			return dedoubled // starr(ed) -> star, runn(ing) -> run
		}
	}
	// Unknown stem: orthographic heuristics.
	if len(stem) >= 3 && stem[len(stem)-1] == stem[len(stem)-2] &&
		isConsonant(stem[len(stem)-1]) && stem[len(stem)-1] != 'l' &&
		stem[len(stem)-1] != 's' {
		return stem[:len(stem)-1]
	}
	if needsE(stem) {
		return stem + "e"
	}
	return stem
}

// needsE guesses whether the stem lost a silent 'e' during suffixation:
// consonant + single vowel + consonant patterns like "creat", "resid",
// "writ" usually did, while "paint", "direct" did not.
func needsE(stem string) bool {
	if len(stem) < 3 {
		return false
	}
	last := stem[len(stem)-1]
	prev := stem[len(stem)-2]
	prev2 := stem[len(stem)-3]
	// ...VC with C not in the no-e set, and the char before the vowel a
	// consonant: creat(e), writ(e), resid(e), compos(e).
	if isConsonant(last) && isVowel(prev) && isConsonant(prev2) {
		switch last {
		case 'w', 'x', 'y':
			return false
		case 't':
			// "creat"->create but "paint" has vowel pair; here prev is a
			// single vowel so: visit->visit (no e) is the exception we
			// accept being wrong on; domain verbs prefer +e.
			return true
		default:
			return true
		}
	}
	// ...Cs like "releas", "hous": add e after s/c/g/v/z.
	switch last {
	case 's', 'c', 'g', 'v', 'z':
		if isConsonant(prev) {
			return false
		}
		return true
	}
	return false
}

func isVowel(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

func isConsonant(b byte) bool {
	return b >= 'a' && b <= 'z' && !isVowel(b)
}
