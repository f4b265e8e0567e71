package lemma

import (
	"strings"
	"testing"

	"repro/internal/nlp/token"
)

// lemmaOf returns the lemma Fill gives word under tag.
func lemmaOf(word, tag string) string {
	toks := []token.Token{{Text: word, Lower: strings.ToLower(word), Tag: tag}}
	Fill(toks)
	return toks[0].Lemma
}

func TestIrregularVerbs(t *testing.T) {
	cases := []struct{ word, tag, want string }{
		{"written", "VBN", "write"},
		{"wrote", "VBD", "write"},
		{"born", "VBN", "bear"},
		{"died", "VBD", "die"},
		{"was", "VBD", "be"},
		{"is", "VBZ", "be"},
		{"has", "VBZ", "have"},
		{"did", "VBD", "do"},
		{"won", "VBD", "win"},
		{"led", "VBD", "lead"},
		{"founded", "VBN", "found"},
		{"became", "VBD", "become"},
		{"known", "VBN", "know"},
	}
	for _, c := range cases {
		if got := lemmaOf(c.word, c.tag); got != c.want {
			t.Errorf("Lemma(%s,%s) = %s, want %s", c.word, c.tag, got, c.want)
		}
	}
}

// TestTagDecidesAmbiguousForms: a noun plural reduces only under NNS
// or an unknown tag, and a past form that is also another verb's base
// form only under VBD, VBN or an unknown tag.
func TestTagDecidesAmbiguousForms(t *testing.T) {
	cases := []struct{ word, tag, want string }{
		{"lives", "VBZ", "live"},
		{"lives", "NNS", "life"},
		{"lives", "", "life"},
		{"wives", "NNS", "wife"},
		{"wives", "", "wife"},
		{"lay", "VBD", "lie"},
		{"lay", "VB", "lay"},
		{"lay", "VBP", "lay"},
		{"lay", "", "lie"},
		{"found", "VBD", "find"},
		{"found", "VBN", "find"},
		{"found", "VB", "found"},
		{"found", "VBP", "found"},
		{"found", "", "find"},
		{"founded", "VBD", "found"},
		{"founded", "VBN", "found"},
	}
	for _, c := range cases {
		if got := lemmaOf(c.word, c.tag); got != c.want {
			t.Errorf("Lemma(%s,%q) = %s, want %s", c.word, c.tag, got, c.want)
		}
	}
}

func TestRegularPastTense(t *testing.T) {
	cases := []struct{ word, want string }{
		{"directed", "direct"},
		{"painted", "paint"},
		{"created", "create"},
		{"resided", "reside"},
		{"starred", "star"},
		{"stopped", "stop"},
		{"studied", "study"},
		{"married", "marry"}, // via irregular table
		{"composed", "compose"},
		{"developed", "develop"},
	}
	for _, c := range cases {
		if got := lemmaOf(c.word, "VBD"); got != c.want {
			t.Errorf("Lemma(%s, VBD) = %s, want %s", c.word, got, c.want)
		}
	}
}

func TestGerunds(t *testing.T) {
	cases := []struct{ word, want string }{
		{"writing", "write"},
		{"running", "run"},
		{"playing", "play"},
		{"dying", "die"}, // irregular
		{"starring", "star"},
	}
	for _, c := range cases {
		if got := lemmaOf(c.word, "VBG"); got != c.want {
			t.Errorf("Lemma(%s, VBG) = %s, want %s", c.word, got, c.want)
		}
	}
}

func TestPluralNouns(t *testing.T) {
	cases := []struct{ word, want string }{
		{"books", "book"},
		{"cities", "city"},
		{"children", "child"},
		{"people", "person"},
		{"wives", "wife"},
		{"churches", "church"},
		{"boxes", "box"},
		{"heroes", "hero"},
		{"glass", "glass"}, // -ss not stripped
		{"bus", "bus"},     // -us not stripped
		{"basis", "basis"}, // -is not stripped
		{"headquarters", "headquarters"},
		{"series", "series"},
	}
	for _, c := range cases {
		if got := lemmaOf(c.word, "NNS"); got != c.want {
			t.Errorf("Lemma(%s, NNS) = %s, want %s", c.word, got, c.want)
		}
	}
}

func TestThirdPersonVerbs(t *testing.T) {
	cases := []struct{ word, want string }{
		{"writes", "write"},
		{"dies", "die"},
		{"flows", "flow"},
		{"crosses", "cross"},
		{"goes", "go"},
	}
	for _, c := range cases {
		if got := lemmaOf(c.word, "VBZ"); got != c.want {
			t.Errorf("Lemma(%s, VBZ) = %s, want %s", c.word, got, c.want)
		}
	}
}

func TestProperNounsKeepForm(t *testing.T) {
	if got := lemmaOf("Pamuk", "NNP"); got != "Pamuk" {
		t.Errorf("proper noun lemma = %s", got)
	}
	if got := lemmaOf("Brothers", "NNPS"); got != "Brothers" {
		t.Errorf("NNPS lemma = %s, want unchanged", got)
	}
}

func TestLowercasingDefault(t *testing.T) {
	if got := lemmaOf("Height", "NN"); got != "height" {
		t.Errorf("Lemma(Height, NN) = %s, want height", got)
	}
}

func TestUnknownTagGuessing(t *testing.T) {
	// Empty tag: plural-looking words still strip.
	if got := lemmaOf("mountains", ""); got != "mountain" {
		t.Errorf("Lemma(mountains, '') = %s", got)
	}
	if got := lemmaOf("always", ""); got != "always" {
		t.Errorf("Lemma(always, '') = %s, noStrip word mangled", got)
	}
}

func TestShortWordsUntouched(t *testing.T) {
	for _, w := range []string{"as", "is", "us", "so"} {
		if got := lemmaOf(w, "NNS"); len(got) < 2 && w != "is" {
			t.Errorf("short word %s mangled to %s", w, got)
		}
	}
}
