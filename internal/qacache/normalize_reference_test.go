package qacache

import (
	"strings"
	"testing"
)

// referenceNormalize is Normalize as it was written before the one-pass
// scan: strings.Fields + strings.Join, then the trailing punctuation.
// FuzzNormalize holds Normalize to it on every input.
func referenceNormalize(q string) string {
	q = strings.Join(strings.Fields(q), " ")
	if len(q) > 0 {
		switch q[len(q)-1] {
		case '?', '.', '!':
			q = strings.TrimRight(q[:len(q)-1], " ")
		}
	}
	return q
}

// normalizeSeeds cover every whitespace class Fields splits on and the
// trailing punctuation.
var normalizeSeeds = []string{
	"", " ", "?", " ? ", "??", "a?!", "Which book is written by Orhan Pamuk?",
	"  Which   book\tis written by Orhan Pamuk ?", "tab\tsep", "line\nbreak\r\n",
	"nbsp here", "nel\u0085here", "line sep para", "ideo　space",
	"runs   of    spaces", "trailing spaces   ", "   leading", "Who wrote Snow.",
	"end !", "end . ", "v\vf\f", "lone \xff byte", "\xe2\x80 truncated", "  ",
	"x  ?",
}

func FuzzNormalize(f *testing.F) {
	for _, s := range normalizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if got, want := Normalize(q), referenceNormalize(q); got != want {
			t.Errorf("Normalize(%q) = %q, reference %q", q, got, want)
		}
	})
}

// TestNormalizeAllocations: text that needs no collapsing keys the
// cache as a substring of itself; only a whitespace run to collapse
// allocates.
func TestNormalizeAllocations(t *testing.T) {
	for _, q := range []string{
		"Which book is written by Orhan Pamuk?", "  How tall is Michael Jordan \t",
		"Who wrote Snow.", "",
	} {
		if n := testing.AllocsPerRun(10, func() { Normalize(q) }); n != 0 {
			t.Errorf("Normalize(%q): %v allocs, want 0", q, n)
		}
	}
	if n := testing.AllocsPerRun(10, func() { Normalize("a  b") }); n != 1 {
		t.Errorf("Normalize collapsing a run: %v allocs, want 1", n)
	}
}
