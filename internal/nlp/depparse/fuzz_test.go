package depparse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// wellFormed reports whether g is a tree over all of its nodes: a root
// with no head, exactly one head for every other node, and every node
// reaching the root. This is the structural invariant every downstream
// stage assumes.
func wellFormed(g *Graph) bool {
	if g.Root < 0 || g.Root >= len(g.Nodes) {
		return false
	}
	// Single head per non-root node.
	for i := range g.Nodes {
		heads := 0
		for _, e := range g.Edges {
			if int(e.Dep) == i && e.Head >= 0 {
				heads++
			}
		}
		if i == g.Root {
			if heads != 0 {
				return false
			}
			continue
		}
		if heads != 1 {
			return false
		}
	}
	// Acyclic: every node reaches the root.
	for i := range g.Nodes {
		cur, steps := i, 0
		for cur != g.Root {
			h, _ := g.HeadOf(cur)
			if h < 0 || steps > len(g.Nodes) {
				return false
			}
			cur = h
			steps++
		}
	}
	return true
}

// Property: for any non-empty word-salad built from the question
// vocabulary, the parser produces a connected, acyclic, single-headed
// graph. The pinned sentences are the counterexamples the random search
// has found (with the root each must get) beside controls of the same
// shapes that always parsed; the search itself runs from a fixed seed,
// so a failure repeats.
func TestParserStructuralInvariants(t *testing.T) {
	for _, c := range []struct{ sentence, root string }{
		// "how" hung under "many", then became the root: a two-node cycle.
		{"how many", "many"},
		{"how many ?", "many"},
		{"how many who did", "many"},
		// The adjective of "how ADJ is NP" chunked under a following noun,
		// then made the root above it.
		{"how tall book is", "book"},
		{"how tall Orhan Pamuk was", "Pamuk"},
		// A preposition before a pronoun with no site to attach to was
		// headed by -1, under prep.
		{"Who As it?", "Who"},
		// Controls.
		{"how tall", "how"},
		{"how many people", "people"},
		{"how tall is Orhan Pamuk", "tall"},
	} {
		g, err := Parse(c.sentence)
		if err != nil {
			t.Errorf("%q: %v", c.sentence, err)
			continue
		}
		if !wellFormed(g) || rootWord(g) != c.root {
			t.Errorf("%q: well-formed %v, root %q (want %q)\n%s", c.sentence, wellFormed(g), rootWord(g), c.root, g)
		}
	}

	vocab := []string{
		"which", "who", "what", "where", "when", "how", "is", "was",
		"did", "the", "a", "book", "written", "by", "Orhan", "Pamuk",
		"tall", "many", "people", "live", "in", "of", "capital", "die",
		"born", "height", "and", "?", "'s", "to", "married", "1.98",
	}
	prop := func(picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		if len(picks) > 14 {
			picks = picks[:14]
		}
		words := make([]string, len(picks))
		for i, p := range picks {
			words[i] = vocab[int(p)%len(vocab)]
		}
		sentence := strings.Join(words, " ")
		g, err := Parse(sentence)
		if err != nil {
			return strings.TrimSpace(sentence) == "" // only empty may fail
		}
		return wellFormed(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
