package ner_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/qald"
	"repro/internal/testutil"
	"repro/internal/triplex"
)

func sameCandidates(a, b []ner.Candidate) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d candidates, reference has %d\n got %+v\nwant %+v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i].Entity != b[i].Entity || a[i].Label != b[i].Label ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return fmt.Errorf("candidate %d = %+v, reference %+v", i, a[i], b[i])
		}
	}
	return nil
}

// comparePhrase asserts indexed ≡ reference for one phrase: the
// candidate lookup on its own, then the full Resolve with its context.
func comparePhrase(t *testing.T, l *ner.Linker, ref *ner.RefLinker, phrase string, context ...string) {
	t.Helper()
	if err := sameCandidates(l.CandidatesFor(phrase), ref.CandidatesFor(phrase)); err != nil {
		t.Errorf("candidatesFor(%q): %v", phrase, err)
	}
	e, cs, ok := l.Resolve(phrase, context...)
	re, rcs, rok := ref.Resolve(phrase, context...)
	if e != re || ok != rok {
		t.Errorf("Resolve(%q, %q) = %v, %v; reference %v, %v", phrase, context, e, ok, re, rok)
	}
	if err := sameCandidates(cs, rcs); err != nil {
		t.Errorf("Resolve(%q, %q): %v", phrase, context, err)
	}
}

// questionPhrases are the entity phrases §2.2 would resolve for a
// question, as propmap.Mapper.Map collects them.
func questionPhrases(q string) []string {
	ext, err := triplex.Extract(q)
	if err != nil {
		return nil
	}
	var phrases []string
	for _, tr := range ext.Triples {
		for _, s := range []triplex.Slot{tr.Subject, tr.Object} {
			if !s.IsVar() && !tr.IsType && s.Text != "" {
				phrases = append(phrases, s.Text)
			}
		}
	}
	return phrases
}

func TestIndexedMatchesReferenceOnQuestions(t *testing.T) {
	k := kb.Default()
	l, ref := ner.NewLinker(k), ner.NewRefLinker(k)
	var questions []string
	for _, q := range qald.FullSet() {
		questions = append(questions, q.Text)
	}
	nQALD := len(questions)
	questions = append(questions, testutil.EntityQuestions(k)...)
	for i, q := range questions {
		phrases := questionPhrases(q)
		for _, p := range phrases {
			comparePhrase(t, l, ref, p, phrases...)
		}
		if i >= nQALD {
			continue
		}
		got, want := l.Link(q), ref.Link(q)
		if len(got) != len(want) {
			t.Errorf("Link(%q): %d mentions, reference %d", q, len(got), len(want))
			continue
		}
		for mi := range got {
			g, w := got[mi], want[mi]
			if g.Text != w.Text || g.Start != w.Start || g.End != w.End || g.Entity != w.Entity {
				t.Errorf("Link(%q) mention %d = %+v, reference %+v", q, mi, g, w)
			}
			if err := sameCandidates(g.Candidates, w.Candidates); err != nil {
				t.Errorf("Link(%q) mention %d: %v", q, mi, err)
			}
		}
	}
}

// TestIndexedMatchesReferenceOnGeneratedPhrases drives both linkers with
// a seeded phrase generator over the gazetteer: exact, article-prefixed,
// truncated, one-edit misspelt, non-ASCII, over 64 runes, empty and
// blank, and phrases that share only their first byte with a label.
func TestIndexedMatchesReferenceOnGeneratedPhrases(t *testing.T) {
	k := kb.Default()
	l, ref := ner.NewLinker(k), ner.NewRefLinker(k)
	labels := testutil.Labels(k)
	rng := rand.New(rand.NewSource(14))
	letters := []rune("abcdefghijklmnopqrstuvwxyz 0123456789éüßŞı")
	edit := func(s string) string {
		r := []rune(s)
		if len(r) == 0 {
			return "x"
		}
		i := rng.Intn(len(r))
		switch rng.Intn(4) {
		case 0: // substitute
			r[i] = letters[rng.Intn(len(letters))]
		case 1: // delete
			r = append(r[:i], r[i+1:]...)
		case 2: // insert
			r = append(r[:i], append([]rune{letters[rng.Intn(len(letters))]}, r[i:]...)...)
		case 3: // transpose
			if i+1 < len(r) {
				r[i], r[i+1] = r[i+1], r[i]
			}
		}
		return string(r)
	}
	fixed := []string{"", " ", "\t", "?", "the ", "a", "an ", "The", "\xff", "s\xffnth person", "é", "É",
		strings.Repeat("s", 65), "synth person " + strings.Repeat("0", 60), "Synth", "Synth Person", "Synth Person 01",
		"Synth Book", "Synthville", "synthville 0", "Zürich", "the Zürich", "KELVIN K", "İstanbul", "istanbul"}
	for _, p := range fixed {
		comparePhrase(t, l, ref, p)
	}
	for i := 0; i < 3000; i++ {
		label := labels[rng.Intn(len(labels))]
		r := []rune(label)
		var p string
		switch i % 8 {
		case 0:
			p = label
		case 1:
			p = []string{"the ", "The ", "a ", "An "}[rng.Intn(4)] + label
		case 2: // truncated
			p = string(r[:rng.Intn(len(r)+1)])
		case 3: // one edit
			p = edit(label)
		case 4: // two edits, lower-cased
			p = strings.ToLower(edit(edit(label)))
		case 5: // first-byte collision: the label's first byte, then noise
			p = string(r[:1]) + edit(edit(edit(labels[rng.Intn(len(labels))])))
		case 6: // non-ASCII tail and padded past the 64-byte kernel limit
			p = label + []string{"é", " ü", strings.Repeat(" x", 40)}[rng.Intn(3)]
		case 7: // a truncated name with another label as context
			p = string(r[:len(r)-len(r)/4])
			comparePhrase(t, l, ref, p, labels[rng.Intn(len(labels))], edit(labels[rng.Intn(len(labels))]))
		}
		comparePhrase(t, l, ref, p)
	}
}

// TestFuzzyResolveAllocations holds the fuzzy fallback to a handful of
// allocations: the lower-cased phrase, the candidate list and the
// mention, not a pair of rune slices per label of the gazetteer.
func TestFuzzyResolveAllocations(t *testing.T) {
	l := ner.NewLinker(kb.Default())
	for _, phrase := range []string{"Synth Person", "Orhan Pamukk", "Synth Book 00"} {
		if _, cs, ok := l.Resolve(phrase); !ok || len(cs) == 0 {
			t.Fatalf("Resolve(%q) found nothing; the ceiling would measure the wrong path", phrase)
		}
		if n := testing.AllocsPerRun(200, func() { l.Resolve(phrase) }); n > 8 {
			t.Errorf("Resolve(%q): %v allocs/op, ceiling 8", phrase, n)
		}
	}
}
