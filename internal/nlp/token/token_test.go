package token

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// words returns just the token texts.
func words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasicQuestion(t *testing.T) {
	got := words("Which book is written by Orhan Pamuk?")
	want := []string{"Which", "book", "is", "written", "by", "Orhan", "Pamuk", "?"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizePossessive(t *testing.T) {
	got := words("What is Michael Jordan's height?")
	want := []string{"What", "is", "Michael", "Jordan", "'s", "height", "?"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
	// The clitic splits off in either case.
	if got, want := words("WHAT IS JORDAN'S HEIGHT"), []string{"WHAT", "IS", "JORDAN", "'S", "HEIGHT"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizeNegationClitic(t *testing.T) {
	got := words("Isn't Frank Herbert alive?")
	want := []string{"Is", "n't", "Frank", "Herbert", "alive", "?"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
	if got, want := words("ISN'T he, DoN'T they"), []string{"IS", "N'T", "he", ",", "Do", "N'T", "they"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizeNumbersAndInitialisms(t *testing.T) {
	got := words("Lincoln died in Washington D.C. in 1865; height 1.98 m.")
	want := []string{"Lincoln", "died", "in", "Washington", "D.C.", "in",
		"1865", ";", "height", "1.98", "m", "."}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizeHyphens(t *testing.T) {
	got := words("a first-ever award")
	want := []string{"a", "first-ever", "award"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizeApostropheName(t *testing.T) {
	got := words("O'Brien wrote it")
	want := []string{"O'Brien", "wrote", "it"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndSpace(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("   \t\n "); len(got) != 0 {
		t.Errorf("Tokenize(spaces) = %v", got)
	}
}

func TestTokenOffsets(t *testing.T) {
	text := "Who wrote Snow?"
	toks := Tokenize(text)
	for _, tok := range toks {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: %q vs %q", text[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenOffsetsUnicode(t *testing.T) {
	text := "Who is Gabriel García Márquez?"
	toks := Tokenize(text)
	for _, tok := range toks {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("unicode offset mismatch: %q vs %q", text[tok.Start:tok.End], tok.Text)
		}
	}
}

// Each token is lowered by itself: forms that change byte length
// ("İ" is 2 bytes, "i" 1; "Ⱥ" is 2, "ⱥ" 3) must not shift the lower-case
// forms of the tokens after them.
func TestTokenLowerMatchesToLower(t *testing.T) {
	for _, text := range []string{
		"Who wrote Snow?",
		"İstanbul İS İN TÜRKİYE",
		"ȺBC Ⱥ and ȾE x",
		"ΣΟΦΊΑ STRAẞE ǅemal K\u212aelvin",
		"WHAT IS JORDAN'S HEIGHT",
		"already lower case",
	} {
		for _, tok := range Tokenize(text) {
			if want := strings.ToLower(tok.Text); tok.Lower != want {
				t.Errorf("%q: token %q lowers to %q, want %q", text, tok.Text, tok.Lower, want)
			}
		}
	}
}

// Property: concatenating tokens in order reproduces the input minus
// whitespace; offsets are monotonically increasing.
func TestTokenizeProperties(t *testing.T) {
	prop := func(s string) bool {
		toks := Tokenize(s)
		last := 0
		for _, tok := range toks {
			if tok.Start < last || tok.End <= tok.Start {
				return false
			}
			if tok.Start >= len(s) || tok.End > len(s) {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text || tok.Lower != strings.ToLower(tok.Text) {
				return false
			}
			last = tok.End
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
