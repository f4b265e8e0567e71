// Package depparse produces typed dependency graphs for English
// questions (and simple declaratives). It substitutes the Stanford
// CoreNLP dependency parser the paper uses: the pipeline consumes POS
// tags plus typed dependency edges (nsubj, nsubjpass, dobj, det, cop,
// aux, auxpass, prep, pobj, amod, advmod, nn, num), and this parser emits
// exactly that inventory for the interrogative constructions the paper's
// triple-extraction rules cover (Figure 1 and §2.1).
//
// The algorithm is deterministic and rule-based:
//
//  1. tokenize, POS-tag and lemmatize (packages token, postag, lemma);
//  2. chunk base noun phrases (determiner + adjectives + noun run, with
//     proper-noun compounds) and emit their internal det/amod/nn/num
//     edges;
//  3. identify the verbal core (auxiliaries, copulas, main verb);
//  4. dispatch on the question shape (passive wh, copular wh, how-ADJ,
//     how-many, wh-adverb with do-support, active wh, boolean, generic
//     declarative) and emit the clause-level edges;
//  5. attach prepositional phrases (of-PPs to the preceding noun,
//     otherwise to the verbal/root site) and punctuation.
package depparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/nlp/lemma"
	"repro/internal/nlp/postag"
	"repro/internal/nlp/token"
)

// Node is one token in the graph.
type Node struct {
	Index int
	Word  string
	Lemma string
	Tag   string
}

// Edge is a typed dependency: Rel(head -> dep). Head == -1 marks the root.
type Edge struct {
	Head int
	Dep  int
	Rel  string
}

// Graph is the dependency analysis of one sentence.
type Graph struct {
	Nodes []Node
	Edges []Edge
	Root  int

	// children is Edges ordered by (Head, Dep), built by Parse once
	// every edge is in: Children returns sub-slices of it.
	children []Edge
}

// Relations emitted by the parser (Stanford typed dependency names).
const (
	RelRoot      = "root"
	RelDet       = "det"
	RelNSubj     = "nsubj"
	RelNSubjPass = "nsubjpass"
	RelDObj      = "dobj"
	RelAux       = "aux"
	RelAuxPass   = "auxpass"
	RelCop       = "cop"
	RelPrep      = "prep"
	RelPObj      = "pobj"
	RelAmod      = "amod"
	RelAdvmod    = "advmod"
	RelNN        = "nn"
	RelNum       = "num"
	RelPunct     = "punct"
	RelPoss      = "poss"
	RelDep       = "dep"
)

// HeadOf returns the head index and relation of node i (-1, "root" for
// the root; -1, "" if unattached).
func (g *Graph) HeadOf(i int) (int, string) {
	for _, e := range g.Edges {
		if e.Dep == i {
			return e.Head, e.Rel
		}
	}
	return -1, ""
}

// Children returns the edges whose head is i, in dependent order. It
// reads the child index Parse builds, so the graph must come from
// Parse; the slice is shared with the graph and callers must not
// modify it.
func (g *Graph) Children(i int) []Edge {
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
func appendChildIndex(dst, edges []Edge) []Edge {
	dst = append(dst, edges...)
	slices.SortFunc(dst, func(a, b Edge) int {
		if c := cmp.Compare(a.Head, b.Head); c != 0 {
			return c
		}
		return cmp.Compare(a.Dep, b.Dep)
	})
	return dst
}

// ChildByRel returns the first dependent of i with the given relation.
func (g *Graph) ChildByRel(i int, rel string) (Node, bool) {
	for _, e := range g.Edges {
		if e.Head == i && e.Rel == rel {
			return g.Nodes[e.Dep], true
		}
	}
	return Node{}, false
}

// String renders the graph in the indented tree style of the paper's
// Figure 1: each node as "rel(headWord-headIdx, depWord-depIdx)".
func (g *Graph) String() string {
	var sb strings.Builder
	if g.Root >= 0 {
		fmt.Fprintf(&sb, "root(ROOT-0, %s-%d)\n", g.Nodes[g.Root].Word, g.Root+1)
	}
	edges := append([]Edge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Dep < edges[j].Dep })
	for _, e := range edges {
		if e.Rel == RelRoot {
			continue
		}
		fmt.Fprintf(&sb, "%s(%s-%d, %s-%d)\n", e.Rel,
			g.Nodes[e.Head].Word, e.Head+1, g.Nodes[e.Dep].Word, e.Dep+1)
	}
	return sb.String()
}

// Tree renders the graph as an indented tree (root at top), mirroring the
// dependency tree figure in the paper.
func (g *Graph) Tree() string {
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
	rec(g.Root, RelRoot, 0)
	return sb.String()
}

// Parse analyses one sentence.
func Parse(sentence string) (*Graph, error) {
	toks := token.Tokenize(sentence)
	if len(toks) == 0 {
		return nil, fmt.Errorf("depparse: empty sentence")
	}
	words := make([]string, len(toks))
	for i, t := range toks {
		words[i] = t.Text
	}
	tagged := postag.Tag(words)

	// A node is attached once, the root included, so the graph has at
	// most one edge per node; one array holds the edges and, behind
	// them, the child index.
	n := len(tagged)
	g := &Graph{Root: -1, Nodes: make([]Node, n)}
	edges := make([]Edge, 0, 2*n)
	g.Edges = edges[:0:n]
	for i, t := range tagged {
		g.Nodes[i] = Node{
			Index: i,
			Word:  t.Word,
			Lemma: lemma.Lemma(t.Word, t.Tag),
			Tag:   t.Tag,
		}
	}
	p := &ruleParser{g: g}
	p.run()
	g.children = appendChildIndex(edges[n:n], g.Edges)
	return g, nil
}
