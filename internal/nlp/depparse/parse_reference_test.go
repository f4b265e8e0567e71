package depparse_test

// The reference for the token records: the §2.1 pipeline as it was
// before one record per word, retained verbatim but for renamed types
// and addEdge's refusal of a missing head (see there).
// Each stage copied its input: Tokenize returned offsets and text, the
// parser took the words into a []string, postag.Tag paired each with a
// tag, lemma.Lemma lower-cased the word again, and the parser copied
// all three into its own nodes and lower-cased each word at every rule
// that looked at it. Edges named their relation by string.
//
// What is shared rather than copied: the tagger's lexicon (through
// postag.Lexicon) and the lemmatiser's rules (through lemma.Fill, given
// the word lower-cased here as lemma.Lemma did). The lower-casing, the
// arrays and the relation names are what the records changed.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lemma"
	"repro/internal/nlp/postag"
	"repro/internal/nlp/token"
	"repro/internal/qald"
	"repro/internal/testutil"
)

// tableSentences are the sentences of the depparse, postag and triplex
// table tests, and the word salads the structural test pins.
var tableSentences = []string{
	"Ankara is the capital of Turkey.",
	"Does the company play a role?",
	"Give me all books.",
	"How many books did Orhan Pamuk write?",
	"How many pages does Dune have?",
	"How many people live in Ankara?",
	"How many people live in Istanbul?",
	"How tall is Michael Jordan?",
	"In which city was Albert Einstein born?",
	"Is Frank Herbert still alive?",
	"It is 1.98 meters and 42 pages.",
	"List all films starring Brad Pitt.",
	"Michael Jackson died in 2009.",
	"Orhan Pamuk wrote Snow.",
	"The book was written by him.",
	"The play was good.",
	"What is Italy's population?",
	"What is Michael Jordan's height?",
	"What is the capital of Turkey?",
	"What is the height of Michael Jordan?",
	"What is the largest city of Germany?",
	"When did Frank Herbert die?",
	"Where did Abraham Lincoln die?",
	"Where did Ernest Hemingway grow up?",
	"Where was Michael Jackson born?",
	"Which book is written by Orhan Pamuk?",
	"Which city is the capital of France?",
	"Which company developed Minecraft?",
	"Which country can win?",
	"Which university did Albert Einstein attend?",
	"Who founded Zyxwvu?",
	"Who holds the record?",
	"Who is married to Barack Obama?",
	"Who is the mayor of Berlin?",
	"Who wrote Dune?",
	"Who wrote Snow?",
	"Who wrote The Time Machine?",
	"Who wrote War and Peace?",
	"Lincoln died in Washington D.C. in 1865; height 1.98 m.",
	"Isn't Frank Herbert alive?",
	"WHAT IS JORDAN'S HEIGHT",
	"O'Brien wrote it",
	"Who is Gabriel García Márquez?",
	"books",
	"asdf qwer zxcv",
	"how many",
	"how many ?",
	"how many who did",
	"how tall book is",
	"how tall Orhan Pamuk was",
	"how tall",
	"how many people",
	"how tall is Orhan Pamuk",
}

// lemmaWords are the words of the lemma table tests.
var lemmaWords = strings.Fields(`As became blarting born boxes buzzes crosses did died found founded
	gas has is known lay led lives missing need news passed physics potatoes quopped red ring
	selling tried walled was wishes wives won written wrote basis blayed books bus children
	churches cities composed crawxed created developed dies directed dying flows glass goes
	headquarters heroes married painted people playing plomed resided running series snowed
	starred starring stopped studied writes writing`)

// referenceCorpus is every QALD question (the 55 evaluated and the 45
// excluded), every entity-template question, the table sentences, and
// each lemma-table word alone, capitalised mid-sentence and after an
// auxiliary — each sentence also in upper case, so that every rule
// reading a word's lower-case form meets one that differs from it.
func referenceCorpus() []string {
	var out []string
	for _, q := range qald.FullSet() {
		out = append(out, q.Text)
	}
	out = append(out, testutil.EntityQuestions(kb.Default())...)
	out = append(out, tableSentences...)
	for _, w := range lemmaWords {
		out = append(out, w, "Who "+strings.ToUpper(w[:1])+w[1:]+" it?", "It was "+w+" by them.")
	}
	for _, s := range out {
		out = append(out, strings.ToUpper(s))
	}
	return out
}

// refLemma is lemma.Lemma(word, tag) as it was: lower-case the word,
// then apply the rules lemma.Fill applies to a token's Lower.
func refLemma(word, tag string) string {
	toks := []token.Token{{Text: word, Lower: strings.ToLower(word), Tag: tag}}
	lemma.Fill(toks)
	return toks[0].Lemma
}

// diffParse reports how depparse.Parse(s) differs from the reference:
// the nodes' words, lower-case forms, tags and lemmas, the edges with
// their relations by name, the root, and both renderings.
func diffParse(s string) error {
	got, err := depparse.Parse(s)
	want, refErr := refParse(s)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("error %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, reference %d", len(got.Nodes), len(want.Nodes))
	}
	for i, n := range got.Nodes {
		w := want.Nodes[i]
		if n.Text != w.Word || n.Lower != strings.ToLower(w.Word) || n.Tag != w.Tag || n.Lemma != w.Lemma {
			return fmt.Errorf("node %d = %q/%q/%s/%q, reference %q/%s/%q", i, n.Text, n.Lower, n.Tag, n.Lemma, w.Word, w.Tag, w.Lemma)
		}
	}
	if len(got.Edges) != len(want.Edges) {
		return fmt.Errorf("%d edges, reference %d", len(got.Edges), len(want.Edges))
	}
	for i, e := range got.Edges {
		w := want.Edges[i]
		if int(e.Head) != w.Head || int(e.Dep) != w.Dep || e.Rel.String() != w.Rel {
			return fmt.Errorf("edge %d = %s(%d, %d), reference %s(%d, %d)", i, e.Rel, e.Head, e.Dep, w.Rel, w.Head, w.Dep)
		}
	}
	if got.Root != want.Root {
		return fmt.Errorf("root %d, reference %d", got.Root, want.Root)
	}
	if g, w := got.String(), want.String(); g != w {
		return fmt.Errorf("String() =\n%s\nreference\n%s", g, w)
	}
	if g, w := got.Tree(), want.Tree(); g != w {
		return fmt.Errorf("Tree() =\n%s\nreference\n%s", g, w)
	}
	return nil
}

// TestParseMatchesReference holds the token records to the pipeline
// they replaced, sentence for sentence.
func TestParseMatchesReference(t *testing.T) {
	corpus := referenceCorpus()
	if len(corpus) < 3600 {
		t.Fatalf("only %d sentences: the corpus lost its QALD or entity questions", len(corpus))
	}
	for _, s := range corpus {
		if err := diffParse(s); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
}

// FuzzParse checks the token records against the reference on any
// text: non-ASCII letters whose lower case has another byte length,
// invalid UTF-8, and a sentence longer than Tokenize's stack buffers.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"Which book is written by Orhan Pamuk?",
		"Where was İstanbul's mayor BORN?",
		"WHİCH city is ΣΟΦΊΑ in?",
		"Who lives in the STRAẞE of Ⱥnkara?",
		"Who wrote \xff\xfeSnow\xc3?",
		"\x80",
		strings.Repeat("Which book is written by Orhan Pamuk? ", 8),
		strings.Repeat("İ", 300),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if err := diffParse(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	})
}

// refToken is one token with its source span.
type refToken struct {
	Text  string
	Start int // byte offset of the first byte
	End   int // byte offset one past the last byte
}

// refTokenize splits text into tokens. The rules cover interrogative English:
//   - runs of letters/digits (plus interior hyphens, periods in
//     initialisms like "D.C." and digits like "3.77") form words
//   - the possessive clitic 's and the negation n't split off
//   - all other punctuation becomes single-character tokens
func refTokenize(text string) []refToken {
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

	out := make([]refToken, 0, len(runes)/4+2)
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
			out = append(out, refToken{Text: text[byteOff[i]:byteOff[i+1]], Start: byteOff[i], End: byteOff[i+1]})
			i++
		}
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
func appendWordWithClitics(out []refToken, word string, start int) []refToken {
	switch {
	case len(word) > 2 && hasSuffixFold(word, "'s"):
		head := word[:len(word)-2]
		out = append(out, refToken{Text: head, Start: start, End: start + len(head)})
		out = append(out, refToken{Text: word[len(word)-2:], Start: start + len(head), End: start + len(word)})
	case len(word) > 3 && hasSuffixFold(word, "n't"):
		head := word[:len(word)-3]
		out = append(out, refToken{Text: head, Start: start, End: start + len(head)})
		out = append(out, refToken{Text: word[len(word)-3:], Start: start + len(head), End: start + len(word)})
	default:
		out = append(out, refToken{Text: word, Start: start, End: start + len(word)})
	}
	return out
}

// hasSuffixFold reports whether word ends with the lower-case ASCII
// suffix in either case. No other rune lower-cases to ', n, s or t, so
// it agrees with strings.HasSuffix(strings.ToLower(word), suffix).
func hasSuffixFold(word, suffix string) bool {
	return len(word) >= len(suffix) && strings.EqualFold(word[len(word)-len(suffix):], suffix)
}

// refTagged pairs a token with its tag.
type refTagged struct {
	Word string
	Tag  string
}

// refTag tags a token sequence.
func refTag(words []string) []refTagged {
	out := make([]refTagged, len(words))
	for i, w := range words {
		out[i] = refTagged{Word: w, Tag: lexicalTag(w, i)}
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
	if t, ok := postag.Lexicon(lower); ok {
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
func applyContextRules(ts []refTagged) {
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
	t, ok := postag.Lexicon(lower)
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
	if t, ok := postag.Lexicon(lower); ok {
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

// refNode is one token in the graph.
type refNode struct {
	Index int
	Word  string
	Lemma string
	Tag   string
}

// refEdge is a typed dependency: Rel(head -> dep). Head == -1 marks the root.
type refEdge struct {
	Head int
	Dep  int
	Rel  string
}

// refGraph is the dependency analysis of one sentence.
type refGraph struct {
	Nodes []refNode
	Edges []refEdge
	Root  int

	// children is Edges ordered by (Head, Dep), built by refParse once
	// every edge is in: Children returns sub-slices of it.
	children []refEdge
}

// Relations emitted by the parser (Stanford typed dependency names).
const (
	refRelRoot      = "root"
	refRelDet       = "det"
	refRelNSubj     = "nsubj"
	refRelNSubjPass = "nsubjpass"
	refRelDObj      = "dobj"
	refRelAux       = "aux"
	refRelAuxPass   = "auxpass"
	refRelCop       = "cop"
	refRelPrep      = "prep"
	refRelPObj      = "pobj"
	refRelAmod      = "amod"
	refRelAdvmod    = "advmod"
	refRelNN        = "nn"
	refRelNum       = "num"
	refRelPunct     = "punct"
	refRelPoss      = "poss"
	refRelDep       = "dep"
)

// HeadOf returns the head index and relation of node i (-1, "root" for
// the root; -1, "" if unattached).
func (g *refGraph) HeadOf(i int) (int, string) {
	for _, e := range g.Edges {
		if e.Dep == i {
			return e.Head, e.Rel
		}
	}
	return -1, ""
}

// Children returns the edges whose head is i, in dependent order. It
// reads the child index refParse builds, so the graph must come from
// refParse; the slice is shared with the graph and callers must not
// modify it.
func (g *refGraph) Children(i int) []refEdge {
	kids := g.children
	lo := 0
	for lo < len(kids) && kids[lo].Head < i {
		lo++
	}
	hi := lo
	for hi < len(kids) && kids[hi].Head == i {
		hi++
	}
	return kids[lo:hi:hi]
}

// appendChildIndex appends edges to dst ordered by (Head, Dep). A node
// has one head, so no two edges tie.
func appendChildIndex(dst, edges []refEdge) []refEdge {
	dst = append(dst, edges...)
	slices.SortFunc(dst, func(a, b refEdge) int {
		if c := cmp.Compare(a.Head, b.Head); c != 0 {
			return c
		}
		return cmp.Compare(a.Dep, b.Dep)
	})
	return dst
}

// String renders the graph in the indented tree style of the paper's
// Figure 1: each node as "rel(headWord-headIdx, depWord-depIdx)".
func (g *refGraph) String() string {
	var sb strings.Builder
	if g.Root >= 0 {
		fmt.Fprintf(&sb, "root(ROOT-0, %s-%d)\n", g.Nodes[g.Root].Word, g.Root+1)
	}
	edges := append([]refEdge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Dep < edges[j].Dep })
	for _, e := range edges {
		if e.Rel == refRelRoot {
			continue
		}
		fmt.Fprintf(&sb, "%s(%s-%d, %s-%d)\n", e.Rel,
			g.Nodes[e.Head].Word, e.Head+1, g.Nodes[e.Dep].Word, e.Dep+1)
	}
	return sb.String()
}

// Tree renders the graph as an indented tree (root at top), mirroring the
// dependency tree figure in the paper.
func (g *refGraph) Tree() string {
	var sb strings.Builder
	if g.Root < 0 {
		return ""
	}
	var rec func(i int, rel string, depth int)
	rec = func(i int, rel string, depth int) {
		fmt.Fprintf(&sb, "%s%s [%s] <-%s\n",
			strings.Repeat("  ", depth), g.Nodes[i].Word, g.Nodes[i].Tag, rel)
		for _, e := range g.Children(i) {
			rec(e.Dep, e.Rel, depth+1)
		}
	}
	rec(g.Root, refRelRoot, 0)
	return sb.String()
}

// refParse analyses one sentence.
func refParse(sentence string) (*refGraph, error) {
	toks := refTokenize(sentence)
	if len(toks) == 0 {
		return nil, fmt.Errorf("depparse: empty sentence")
	}
	words := make([]string, len(toks))
	for i, t := range toks {
		words[i] = t.Text
	}
	tagged := refTag(words)

	// A node is attached once, the root included, so the graph has at
	// most one edge per node; one array holds the edges and, behind
	// them, the child index.
	n := len(tagged)
	g := &refGraph{Root: -1, Nodes: make([]refNode, n)}
	edges := make([]refEdge, 0, 2*n)
	g.Edges = edges[:0:n]
	for i, t := range tagged {
		g.Nodes[i] = refNode{
			Index: i,
			Word:  t.Word,
			Lemma: refLemma(t.Word, t.Tag),
			Tag:   t.Tag,
		}
	}
	p := &ruleParser{g: g}
	p.run()
	g.children = appendChildIndex(edges[n:n], g.Edges)
	return g, nil
}

// chunk is a base noun phrase: token span [start,end] with head index.
type chunk struct {
	start, end int // inclusive token indexes
	head       int
}

// ruleParser holds the state of one parse.
type ruleParser struct {
	g        *refGraph
	chunks   []chunk
	inChunk  []int // token index -> chunk index or -1
	attached []bool
}

func (p *ruleParser) run() {
	g := p.g
	p.attached = make([]bool, len(g.Nodes))
	p.chunkNPs()
	p.emitChunkInternals()
	p.dispatch()
	p.attachPreps()
	p.attachLeftovers()
}

func (p *ruleParser) tag(i int) string {
	if i < 0 || i >= len(p.g.Nodes) {
		return ""
	}
	return p.g.Nodes[i].Tag
}

func (p *ruleParser) lower(i int) string {
	if i < 0 || i >= len(p.g.Nodes) {
		return ""
	}
	return strings.ToLower(p.g.Nodes[i].Word)
}

func isNounTag(t string) bool {
	return t == "NN" || t == "NNS" || t == "NNP" || t == "NNPS"
}

func isAdjTag(t string) bool { return t == "JJ" || t == "JJR" || t == "JJS" }

func isBe(w string) bool {
	switch w {
	case "is", "are", "was", "were", "be", "been", "being", "am":
		return true
	}
	return false
}

func isDo(w string) bool { return w == "do" || w == "does" || w == "did" }

func isHave(w string) bool { return w == "have" || w == "has" || w == "had" }

// addEdge records rel(head -> dep) unless dep is already attached or
// there is no head. (It took head -1 too, which left a preposition
// with no site — "Who As it?" — headed by -1 under prep and made
// String panic; the fix is kept here as well.)
func (p *ruleParser) addEdge(head, dep int, rel string) {
	if dep < 0 || head < 0 || dep >= len(p.g.Nodes) || p.attached[dep] {
		return
	}
	p.g.Edges = append(p.g.Edges, refEdge{Head: head, Dep: dep, Rel: rel})
	p.attached[dep] = true
}

// setRoot marks i as the root. A candidate that already has a head —
// "how" under "many" when nothing is counted, the adjective of "how ADJ
// is NP" chunked under a following noun — hands the root to the top of
// its head chain, so the root never has a head and no later edge can
// close a cycle through it.
func (p *ruleParser) setRoot(i int) {
	if i < 0 || p.g.Root >= 0 {
		return
	}
	for p.attached[i] {
		i, _ = p.g.HeadOf(i)
	}
	p.g.Root = i
	p.g.Edges = append(p.g.Edges, refEdge{Head: -1, Dep: i, Rel: refRelRoot})
	p.attached[i] = true
}

// chunkNPs finds base noun phrases.
func (p *ruleParser) chunkNPs() {
	g := p.g
	p.inChunk = make([]int, len(g.Nodes))
	for i := range p.inChunk {
		p.inChunk[i] = -1
	}
	p.chunks = make([]chunk, 0, len(g.Nodes)/2+1) // chunks are disjoint, mostly apart
	i := 0
	for i < len(g.Nodes) {
		t := p.tag(i)
		// A chunk starts at DT (not wh), JJ, CD, or noun. The determiner
		// "which"/"what" can determine a noun ("Which book"): include WDT
		// when directly followed by adjectives/nouns.
		startsChunk := t == "DT" || isAdjTag(t) || isNounTag(t) || t == "CD" ||
			t == "PRP$" ||
			((t == "WDT" || t == "WP$") && i+1 < len(g.Nodes) &&
				(isNounTag(p.tag(i+1)) || isAdjTag(p.tag(i+1))))
		if !startsChunk {
			i++
			continue
		}
		j := i
		if t == "DT" || t == "WDT" || t == "WP$" || t == "PRP$" {
			j++
		}
		for j < len(g.Nodes) && (isAdjTag(p.tag(j)) || p.tag(j) == "CD") {
			j++
		}
		k := j
		for k < len(g.Nodes) && isNounTag(p.tag(k)) {
			k++
		}
		// Proper-noun coordination inside titles: "War and Peace",
		// "Crime and Punishment" — continue over CC + NNP.
		for k > j && k+1 < len(g.Nodes) && p.tag(k) == "CC" &&
			(p.tag(k+1) == "NNP" || p.tag(k+1) == "NNPS") && p.tag(k-1) == "NNP" {
			k += 2
			for k < len(g.Nodes) && isNounTag(p.tag(k)) {
				k++
			}
		}
		if k == j { // no noun: not an NP after all (bare DT/JJ)
			// "how many" handled elsewhere; bare adjective predicates too.
			i++
			continue
		}
		c := chunk{start: i, end: k - 1, head: k - 1}
		p.chunks = append(p.chunks, c)
		for m := i; m < k; m++ {
			p.inChunk[m] = len(p.chunks) - 1
		}
		i = k
	}
}

// emitChunkInternals adds det/amod/nn/num/poss edges inside each chunk.
func (p *ruleParser) emitChunkInternals() {
	for _, c := range p.chunks {
		for m := c.start; m <= c.end; m++ {
			if m == c.head {
				continue
			}
			switch t := p.tag(m); {
			case t == "DT" || t == "WDT":
				p.addEdge(c.head, m, refRelDet)
			case t == "PRP$" || t == "WP$":
				p.addEdge(c.head, m, refRelPoss)
			case isAdjTag(t):
				p.addEdge(c.head, m, refRelAmod)
			case t == "CD":
				p.addEdge(c.head, m, refRelNum)
			case isNounTag(t):
				p.addEdge(c.head, m, refRelNN)
			default:
				p.addEdge(c.head, m, refRelDep)
			}
		}
	}
}

// chunkAt returns the chunk covering token i, if any.
func (p *ruleParser) chunkAt(i int) (chunk, bool) {
	if i < 0 || i >= len(p.inChunk) || p.inChunk[i] < 0 {
		return chunk{}, false
	}
	return p.chunks[p.inChunk[i]], true
}

// nextChunkAfter returns the first chunk starting at or after token i.
func (p *ruleParser) nextChunkAfter(i int) (chunk, bool) {
	for _, c := range p.chunks {
		if c.start >= i {
			return c, true
		}
	}
	return chunk{}, false
}

// findFirst returns the first token index at or after `from` satisfying
// pred and not inside a chunk, or -1.
func (p *ruleParser) findFirst(from int, pred func(i int) bool) int {
	for i := from; i < len(p.g.Nodes); i++ {
		if p.inChunk[i] >= 0 {
			continue
		}
		if pred(i) {
			return i
		}
	}
	return -1
}

// dispatch selects the clause pattern and emits clause-level edges.
func (p *ruleParser) dispatch() {
	g := p.g
	n := len(g.Nodes)
	if n == 0 {
		return
	}

	// Locate key elements outside chunks.
	whIdx := -1
	for i := 0; i < n; i++ {
		t := p.tag(i)
		if t == "WP" || t == "WRB" || ((t == "WDT" || t == "WP$") && p.inChunk[i] < 0) {
			whIdx = i
			break
		}
		if (t == "WDT" || t == "WP$") && p.inChunk[i] >= 0 {
			whIdx = i // determiner wh inside a chunk still signals a question
			break
		}
	}
	beIdx := p.findFirst(0, func(i int) bool { return isBe(p.lower(i)) })
	doIdx := p.findFirst(0, func(i int) bool { return isDo(p.lower(i)) })
	vbnIdx := p.findFirst(0, func(i int) bool { return p.tag(i) == "VBN" })
	mainVerb := p.findFirst(0, func(i int) bool {
		t := p.tag(i)
		return strings.HasPrefix(t, "VB") && !isBe(p.lower(i)) && !isDo(p.lower(i))
	})

	switch {
	// Pattern D/D': "How many N (does NP V | V ...)".
	case whIdx >= 0 && p.lower(whIdx) == "how" && p.tag(whIdx+1) == "JJ" &&
		(p.lower(whIdx+1) == "many" || p.lower(whIdx+1) == "much"):
		p.howMany(whIdx, doIdx, mainVerb, beIdx)

	// Pattern C: "How ADJ is NP".
	case whIdx >= 0 && p.lower(whIdx) == "how" && isAdjTag(p.tag(whIdx+1)) && beIdx > whIdx:
		adj := whIdx + 1
		p.setRoot(adj)
		p.addEdge(adj, whIdx, refRelAdvmod)
		p.addEdge(adj, beIdx, refRelCop)
		if c, ok := p.nextChunkAfter(beIdx); ok {
			p.addEdge(adj, c.head, refRelNSubj)
		}

	// Pattern A: passive with VBN ("Which book is written by X",
	// "Where was X born", "Who is married to Y", "In which city was X
	// born").
	case vbnIdx >= 0 && beIdx >= 0 && beIdx < vbnIdx:
		p.setRoot(vbnIdx)
		p.addEdge(vbnIdx, beIdx, refRelAuxPass)
		// A fronted preposition + wh-chunk ("In which city ...") is a
		// prepositional complement of the participle, not its subject.
		fronted := p.tag(0) == "IN" && p.inChunk != nil && len(p.inChunk) > 1 &&
			p.inChunk[1] >= 0 && p.chunks[p.inChunk[1]].start == 1
		if fronted {
			c := p.chunks[p.inChunk[1]]
			p.addEdge(vbnIdx, 0, refRelPrep)
			p.addEdge(0, c.head, refRelPObj)
		}
		// Subject: wh-chunk or wh-word before be, else chunk between be
		// and the participle ("Where was Michael Jackson born").
		if c, ok := p.firstChunkBefore(beIdx); ok && !fronted {
			p.addEdge(vbnIdx, c.head, refRelNSubjPass)
		} else if whIdx >= 0 && whIdx < beIdx && (p.tag(whIdx) == "WP" || p.tag(whIdx) == "WDT") && !fronted {
			p.addEdge(vbnIdx, whIdx, refRelNSubjPass)
		}
		if whIdx >= 0 && p.tag(whIdx) == "WRB" {
			p.addEdge(vbnIdx, whIdx, refRelAdvmod)
		}
		if c, ok := p.chunkBetween(beIdx, vbnIdx); ok {
			p.addEdge(vbnIdx, c.head, refRelNSubjPass)
		}

	// Pattern E/I: do-support ("Where did X die", "When did X die",
	// "Did X write Y", "Which university did X attend").
	case doIdx >= 0 && mainVerb > doIdx:
		p.setRoot(mainVerb)
		p.addEdge(mainVerb, doIdx, refRelAux)
		if whIdx >= 0 && whIdx < doIdx {
			switch {
			case p.tag(whIdx) == "WRB":
				p.addEdge(mainVerb, whIdx, refRelAdvmod)
			case p.inChunk[whIdx] >= 0:
				// Fronted wh-object: "Which university did X attend?"
				p.addEdge(mainVerb, p.chunks[p.inChunk[whIdx]].head, refRelDObj)
			default:
				p.addEdge(mainVerb, whIdx, refRelDObj) // "What did X write"
			}
		}
		if c, ok := p.chunkBetween(doIdx, mainVerb); ok {
			p.addEdge(mainVerb, c.head, refRelNSubj)
		}
		if c, ok := p.nextChunkAfter(mainVerb); ok {
			p.addEdge(mainVerb, c.head, refRelDObj)
		}

	// Pattern B: wh-copula ("What is the height of X", "Who is the mayor
	// of Berlin", "What is Michael Jordan's height").
	case whIdx >= 0 && beIdx > whIdx && p.inChunk[whIdx] < 0 &&
		(p.tag(whIdx) == "WP" || p.tag(whIdx) == "WDT"):
		if c, ok := p.nextChunkAfter(beIdx); ok {
			// Possessive predicate nominal: NP 's NP — the second noun
			// heads the clause with poss(second, first).
			if c.end+1 < len(g.Nodes) && p.tag(c.end+1) == "POS" {
				if c2, ok2 := p.nextChunkAfter(c.end + 2); ok2 && c2.start == c.end+2 {
					p.setRoot(c2.head)
					p.addEdge(c2.head, whIdx, refRelNSubj)
					p.addEdge(c2.head, beIdx, refRelCop)
					p.addEdge(c2.head, c.head, refRelPoss)
					p.addEdge(c.head, c.end+1, refRelDep) // the 's marker
					break
				}
			}
			p.setRoot(c.head)
			p.addEdge(c.head, whIdx, refRelNSubj)
			p.addEdge(c.head, beIdx, refRelCop)
		} else {
			// "Who is X?" with X a proper noun chunk... no chunk found
			// means a bare predicate; fall back to the be verb as root.
			p.setRoot(beIdx)
			p.addEdge(beIdx, whIdx, refRelNSubj)
		}

	// Pattern B': wh-adverb copula ("Where is X", "When is X").
	case whIdx >= 0 && p.tag(whIdx) == "WRB" && beIdx > whIdx:
		p.setRoot(beIdx)
		p.addEdge(beIdx, whIdx, refRelAdvmod)
		if c, ok := p.nextChunkAfter(beIdx); ok {
			p.addEdge(beIdx, c.head, refRelNSubj)
		}

	// Pattern G: active wh-subject ("Who wrote X", "Who founded Y",
	// "Which company developed Z" — wh inside chunk).
	case whIdx >= 0 && mainVerb > whIdx:
		p.setRoot(mainVerb)
		if c, ok := p.chunkAt(whIdx); ok {
			p.addEdge(mainVerb, c.head, refRelNSubj)
		} else {
			p.addEdge(mainVerb, whIdx, refRelNSubj)
		}
		if c, ok := p.nextChunkAfter(mainVerb); ok {
			p.addEdge(mainVerb, c.head, refRelDObj)
		}
		if haveIdx := p.findFirst(0, func(i int) bool { return isHave(p.lower(i)) && i < mainVerb }); haveIdx >= 0 {
			p.addEdge(mainVerb, haveIdx, refRelAux)
		}

	// Pattern H: boolean copula ("Is Frank Herbert still alive?",
	// "Is X a Y?").
	case beIdx == 0:
		// Predicate: adjective after the subject chunk, else second chunk.
		subj, hasSubj := p.nextChunkAfter(1)
		adjIdx := p.findFirst(1, func(i int) bool { return isAdjTag(p.tag(i)) })
		switch {
		case adjIdx >= 0:
			p.setRoot(adjIdx)
			p.addEdge(adjIdx, beIdx, refRelCop)
			if hasSubj {
				p.addEdge(adjIdx, subj.head, refRelNSubj)
			}
			if advIdx := p.findFirst(1, func(i int) bool { return p.tag(i) == "RB" }); advIdx >= 0 {
				p.addEdge(adjIdx, advIdx, refRelAdvmod)
			}
		case hasSubj:
			// "Is X the Y of Z?": second chunk is the predicate nominal.
			if c2, ok := p.nextChunkAfter(subj.end + 1); ok {
				p.setRoot(c2.head)
				p.addEdge(c2.head, beIdx, refRelCop)
				p.addEdge(c2.head, subj.head, refRelNSubj)
			} else {
				p.setRoot(beIdx)
				p.addEdge(beIdx, subj.head, refRelNSubj)
			}
		default:
			p.setRoot(beIdx)
		}

	// Pattern J: generic declarative / remaining verb clause.
	case mainVerb >= 0:
		p.setRoot(mainVerb)
		if c, ok := p.firstChunkBefore(mainVerb); ok {
			p.addEdge(mainVerb, c.head, refRelNSubj)
		}
		if beIdx >= 0 && beIdx < mainVerb && p.tag(mainVerb) == "VBG" {
			p.addEdge(mainVerb, beIdx, refRelAux)
		}
		if c, ok := p.nextChunkAfter(mainVerb); ok {
			p.addEdge(mainVerb, c.head, refRelDObj)
		}

	// Copular declarative: "X is the Y of Z."
	case beIdx > 0:
		if subj, ok := p.firstChunkBefore(beIdx); ok {
			if pred, ok2 := p.nextChunkAfter(beIdx); ok2 {
				p.setRoot(pred.head)
				p.addEdge(pred.head, beIdx, refRelCop)
				p.addEdge(pred.head, subj.head, refRelNSubj)
			} else {
				p.setRoot(beIdx)
				p.addEdge(beIdx, subj.head, refRelNSubj)
			}
		} else {
			p.setRoot(beIdx)
		}

	default:
		// No verb at all: root at the first chunk head or first token.
		if len(p.chunks) > 0 {
			p.setRoot(p.chunks[0].head)
		} else {
			p.setRoot(0)
		}
	}
}

// howMany handles "How many N does NP V", "How many N V (PP)" and
// "How many N does NP have".
func (p *ruleParser) howMany(howIdx, doIdx, mainVerb, beIdx int) {
	manyIdx := howIdx + 1
	// The counted noun chunk contains or follows "many" ("many" itself is
	// usually chunked as an adjective inside the NP).
	counted, okCounted := p.chunkAt(manyIdx + 1)
	if !okCounted {
		counted, okCounted = p.nextChunkAfter(manyIdx + 1)
	}
	haveIdx := p.findFirst(manyIdx, func(i int) bool { return isHave(p.lower(i)) })
	if mainVerb < 0 {
		mainVerb = haveIdx
	}
	switch {
	case doIdx > 0 && mainVerb > doIdx:
		// "How many pages does War and Peace have" / "How many books did
		// X write": root = verb.
		p.setRoot(mainVerb)
		p.addEdge(mainVerb, doIdx, refRelAux)
		if okCounted {
			p.addEdge(mainVerb, counted.head, refRelDObj)
			p.addEdge(counted.head, manyIdx, refRelAmod)
		}
		p.addEdge(manyIdx, howIdx, refRelAdvmod)
		if c, ok := p.chunkBetween(doIdx, mainVerb); ok {
			p.addEdge(mainVerb, c.head, refRelNSubj)
		}
	case mainVerb > 0 && (beIdx < 0 || mainVerb < beIdx || mainVerb > beIdx):
		// "How many people live in Ankara": root = verb, counted noun is
		// the subject.
		p.setRoot(mainVerb)
		if okCounted {
			p.addEdge(mainVerb, counted.head, refRelNSubj)
			p.addEdge(counted.head, manyIdx, refRelAmod)
		}
		p.addEdge(manyIdx, howIdx, refRelAdvmod)
	case beIdx > 0:
		// "How many inhabitants are there in X": root = counted noun.
		if okCounted {
			p.setRoot(counted.head)
			p.addEdge(counted.head, manyIdx, refRelAmod)
			p.addEdge(counted.head, beIdx, refRelCop)
		} else {
			p.setRoot(beIdx)
		}
		p.addEdge(manyIdx, howIdx, refRelAdvmod)
	default:
		if okCounted {
			p.setRoot(counted.head)
			p.addEdge(counted.head, manyIdx, refRelAmod)
		}
		p.addEdge(manyIdx, howIdx, refRelAdvmod)
	}
}

// firstChunkBefore returns the last chunk that ends before token i.
func (p *ruleParser) firstChunkBefore(i int) (chunk, bool) {
	for j := len(p.chunks) - 1; j >= 0; j-- {
		if p.chunks[j].end < i {
			return p.chunks[j], true
		}
	}
	return chunk{}, false
}

// chunkBetween returns the first chunk fully between tokens a and b.
func (p *ruleParser) chunkBetween(a, b int) (chunk, bool) {
	for _, c := range p.chunks {
		if c.start > a && c.end < b {
			return c, true
		}
	}
	return chunk{}, false
}

// attachPreps attaches IN + NP sequences: prep(site, IN), pobj(IN, head).
// "of"-PPs prefer the immediately preceding noun; others prefer the root
// verb/predicate.
func (p *ruleParser) attachPreps() {
	g := p.g
	for i := 0; i < len(g.Nodes); i++ {
		if p.tag(i) != "IN" && p.tag(i) != "TO" {
			continue
		}
		if p.attached[i] {
			continue
		}
		obj, ok := p.nextChunkAfter(i + 1)
		if !ok || obj.start != i+1 {
			// Object may be a bare pronoun or absent ("born in?").
			if i+1 < len(g.Nodes) && p.tag(i+1) == "PRP" {
				site := p.prepSite(i)
				p.addEdge(site, i, refRelPrep)
				p.addEdge(i, i+1, refRelPObj)
			}
			continue
		}
		site := p.prepSite(i)
		if site < 0 {
			continue
		}
		p.addEdge(site, i, refRelPrep)
		p.addEdge(i, obj.head, refRelPObj)
	}
}

// prepSite picks the attachment site for the preposition at i.
func (p *ruleParser) prepSite(i int) int {
	g := p.g
	lower := p.lower(i)
	// "of" attaches to the nearest preceding noun ("the height of X").
	if lower == "of" {
		for j := i - 1; j >= 0; j-- {
			if isNounTag(p.tag(j)) {
				return j
			}
		}
	}
	// Other prepositions attach to the root if it is a verb/adjective,
	// else the nearest preceding verb, else the nearest preceding noun.
	if g.Root >= 0 {
		rt := p.tag(g.Root)
		if strings.HasPrefix(rt, "VB") || isAdjTag(rt) || isNounTag(rt) {
			return g.Root
		}
	}
	for j := i - 1; j >= 0; j-- {
		if strings.HasPrefix(p.tag(j), "VB") {
			return j
		}
	}
	for j := i - 1; j >= 0; j-- {
		if isNounTag(p.tag(j)) {
			return j
		}
	}
	return -1
}

// attachLeftovers guarantees a connected graph: punctuation hangs off the
// root, everything else unattached becomes a generic dep of the root (or
// of the first node when no root was found).
func (p *ruleParser) attachLeftovers() {
	g := p.g
	if g.Root < 0 {
		p.setRoot(0)
	}
	for i := range g.Nodes {
		if p.attached[i] || i == g.Root {
			continue
		}
		rel := refRelDep
		if p.tag(i) == "." || p.tag(i) == "," || p.tag(i) == ":" || p.tag(i) == "SYM" {
			rel = refRelPunct
		}
		p.addEdge(g.Root, i, rel)
	}
}
