package postag

import (
	"strings"
	"testing"

	"repro/internal/nlp/token"
)

func tagsOf(t *testing.T, sentence string) ([]string, []string) {
	t.Helper()
	words := token.Words(sentence)
	tagged := Tag(words)
	tags := make([]string, len(tagged))
	for i, tg := range tagged {
		tags[i] = tg.Tag
	}
	return words, tags
}

func checkTags(t *testing.T, sentence string, want map[string]string) {
	t.Helper()
	words, tags := tagsOf(t, sentence)
	for i, w := range words {
		if wantTag, ok := want[strings.ToLower(w)]; ok {
			if tags[i] != wantTag {
				t.Errorf("%q: tag(%s) = %s, want %s (tags: %v)", sentence, w, tags[i], wantTag, tags)
			}
		}
	}
}

func TestFigure1Tags(t *testing.T) {
	// The tags that drive Figure 1's dependency graph.
	checkTags(t, "Which book is written by Orhan Pamuk?", map[string]string{
		"which": "WDT", "book": "NN", "is": "VBZ", "written": "VBN",
		"by": "IN", "orhan": "NNP", "pamuk": "NNP", "?": ".",
	})
}

func TestQuestionWordTags(t *testing.T) {
	checkTags(t, "Who wrote The Time Machine?", map[string]string{
		"who": "WP", "wrote": "VBD",
	})
	checkTags(t, "Where did Abraham Lincoln die?", map[string]string{
		"where": "WRB", "did": "VBD", "die": "VB",
	})
	checkTags(t, "When did Frank Herbert die?", map[string]string{
		"when": "WRB", "die": "VB",
	})
	checkTags(t, "How tall is Michael Jordan?", map[string]string{
		"how": "WRB", "tall": "JJ", "is": "VBZ",
	})
	checkTags(t, "What is the height of Michael Jordan?", map[string]string{
		"what": "WP", "height": "NN", "of": "IN",
	})
}

func TestPassiveParticipleRepair(t *testing.T) {
	// "born" after "was" must be VBN; "died" with no aux stays VBD.
	checkTags(t, "Where was Michael Jackson born?", map[string]string{
		"was": "VBD", "born": "VBN",
	})
	checkTags(t, "Michael Jackson died in 2009.", map[string]string{
		"died": "VBD",
	})
	checkTags(t, "The book was written by him.", map[string]string{
		"written": "VBN",
	})
}

func TestDoSupportBaseVerb(t *testing.T) {
	// After do-support the verb is base form even for NN-ambiguous words.
	checkTags(t, "How many books did Orhan Pamuk write?", map[string]string{
		"many": "JJ", "books": "NNS", "did": "VBD", "write": "VB",
	})
	checkTags(t, "Does the company play a role?", map[string]string{
		"play": "VB", "role": "NN", // do-support: play is the base verb
	})
}

func TestDeterminerNounRepair(t *testing.T) {
	checkTags(t, "The play was good.", map[string]string{"play": "NN"})
	checkTags(t, "Who holds the record?", map[string]string{"record": "NN"})
}

func TestProperNounGuess(t *testing.T) {
	checkTags(t, "Who founded Zyxwvu?", map[string]string{"zyxwvu": "NNP"})
}

func TestNumberTag(t *testing.T) {
	checkTags(t, "It is 1.98 meters and 42 pages.", map[string]string{
		"1.98": "CD", "42": "CD",
	})
}

func TestSuffixGuesses(t *testing.T) {
	cases := map[string]string{
		"flabbergasting": "VBG",
		"recalibrated":   "VBD",
		"slowly":         "RB",
		"emulsification": "NN",
		"cromulent":      "NN", // default
		"fabulous":       "JJ",
		"zorbs":          "NNS",
	}
	for w, want := range cases {
		if got := lexicalTag(w, 1); got != want {
			t.Errorf("lexicalTag(%s, 1) = %s, want %s", w, got, want)
		}
	}
}

func TestPunctuationTags(t *testing.T) {
	if lexicalTag("?", 1) != "." || lexicalTag(",", 1) != "," || lexicalTag(";", 1) != ":" {
		t.Error("punctuation tags wrong")
	}
}

func TestEmptyWord(t *testing.T) {
	if lexicalTag("", 1) != "NN" {
		t.Error("empty word should default to NN")
	}
}

func TestPossessiveClitic(t *testing.T) {
	checkTags(t, "What is Michael Jordan's height?", map[string]string{
		"'s": "POS", "height": "NN",
	})
}

func TestModalPlusBaseVerb(t *testing.T) {
	checkTags(t, "Which country can win?", map[string]string{
		"can": "MD", "win": "VB",
	})
}
