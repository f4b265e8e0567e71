// Package triplex implements §2.1 of the paper: extraction of candidate
// RDF triple patterns from the dependency graph and POS tags of a
// question. Starting from the root of the dependency tree it examines
// each node with its children, decides whether the subtree yields a
// triple, and accumulates the triples of the question into a bucket.
// The triple containing the root is the main triple; wh-determined
// nouns yield rdf:type triples ("Which book ..." → [?x rdf:type book]).
//
// It also determines the expected answer type of the question
// (Table 1: Who → Person/Organisation/Company, Where → Place, When →
// Date, How many → Numeric; Which is typed by its noun).
package triplex

import (
	"fmt"
	"strings"

	"repro/internal/nlp/depparse"
	"repro/internal/nlp/token"
)

// SlotKind discriminates what a slot holds.
type SlotKind uint8

// Slot kinds.
const (
	SlotVar SlotKind = iota + 1 // the question variable ?x
	SlotText
)

// Slot is one position of an intermediate query triple: either the
// question variable or surface text to be mapped in §2.2.
type Slot struct {
	Kind SlotKind
	// Var is the variable name (without '?') for SlotVar.
	Var string
	// Text is the surface phrase; Lemma the head lemma; Tag the head POS.
	Text  string
	Lemma string
	Tag   string
}

// Var returns a variable slot.
func VarSlot(name string) Slot { return Slot{Kind: SlotVar, Var: name} }

// TextSlot returns a text slot.
func TextSlot(text, lem, tag string) Slot {
	return Slot{Kind: SlotText, Text: text, Lemma: lem, Tag: tag}
}

// IsVar reports whether the slot is the question variable.
func (s Slot) IsVar() bool { return s.Kind == SlotVar }

// String renders the slot like the paper's bracket notation.
func (s Slot) String() string {
	if s.IsVar() {
		return "?" + s.Var
	}
	return s.Text
}

// QueryTriple is one candidate triple pattern in the bucket.
type QueryTriple struct {
	Subject, Predicate, Object Slot
	// IsType marks [x rdf:type C] triples from wh-determined nouns.
	IsType bool
}

// String renders the triple in the paper's notation.
func (t QueryTriple) String() string {
	pred := t.Predicate.String()
	if t.IsType {
		pred = "rdf:type"
	}
	return fmt.Sprintf("[Subject: %s] [Predicate: %s] [Object: %s]",
		t.Subject, pred, t.Object)
}

// ExpectedKind is the expected answer type of Table 1.
type ExpectedKind uint8

// Expected answer kinds.
const (
	ExpectAny     ExpectedKind = iota // no check ("What", typed "Which")
	ExpectPerson                      // Who → Person, Organisation, Company
	ExpectPlace                       // Where → Place
	ExpectDate                        // When → Date
	ExpectNumeric                     // How many / How ADJ → Numeric
	ExpectClass                       // Which N → instances of N
	ExpectBoolean                     // Is/Did ... → yes/no (unsupported downstream)
)

// String names the expected kind as in Table 1.
func (k ExpectedKind) String() string {
	switch k {
	case ExpectPerson:
		return "Person, Organization, Company"
	case ExpectPlace:
		return "Place"
	case ExpectDate:
		return "Date"
	case ExpectNumeric:
		return "Numeric"
	case ExpectClass:
		return "Class"
	case ExpectBoolean:
		return "Boolean"
	default:
		return "Any"
	}
}

// Expected is the full expected-type annotation.
type Expected struct {
	Kind ExpectedKind
	// ClassText is the determining noun for ExpectClass ("book").
	ClassText string
}

// Superlative marks a superlative question ("What is the highest
// mountain?"): the answer is the instance extremising the value
// variable of the main triple.
type Superlative struct {
	// Desc is true for maximising superlatives (highest, longest).
	Desc bool
	// Adjective is the base form ("high") driving the property mapping.
	Adjective string
}

// Extraction is the output of §2.1 for one question.
type Extraction struct {
	Question     string
	Triples      []QueryTriple
	Expected     Expected
	QuestionWord string
	Graph        *depparse.Graph
	// Superlative is non-nil for superlative questions (only produced
	// with Options.Superlatives, the §6 extension).
	Superlative *Superlative
}

// Options gates the future-work extraction rules.
type Options struct {
	// Superlatives enables the superlative rule ("the highest N").
	Superlatives bool
}

// ErrNoTriples is returned when no rule produced a triple — the paper's
// "tool lacks the ability to map all questions to triples" case.
type ErrNoTriples struct{ Question string }

func (e *ErrNoTriples) Error() string {
	return fmt.Sprintf("triplex: no triple patterns extracted from %q", e.Question)
}

// ExtractOpts runs §2.1 over one question; the zero Options are the
// paper-faithful rules.
func ExtractOpts(question string, opts Options) (*Extraction, error) {
	g, err := depparse.Parse(question)
	if err != nil {
		return nil, err
	}
	ext := &Extraction{Question: question, Graph: g}
	ext.QuestionWord = questionWord(g)
	b := &bucket{g: g, ext: ext, opts: opts}
	b.run()
	// A bucket holding only rdf:type triples carries no relation to
	// query ("Which river is the longest?" needs a superlative, not a
	// class listing) — treat it as unextractable.
	onlyType := true
	for _, t := range ext.Triples {
		if !t.IsType {
			onlyType = false
			break
		}
	}
	if len(ext.Triples) == 0 || onlyType {
		ext.Triples = nil
		return ext, &ErrNoTriples{Question: question}
	}
	return ext, nil
}

// questionWord finds the lowercase wh-word (or leading auxiliary for
// boolean questions).
func questionWord(g *depparse.Graph) string {
	for _, n := range g.Nodes {
		switch n.Tag {
		case "WP", "WDT", "WRB", "WP$":
			return n.Lower
		}
	}
	if len(g.Nodes) > 0 {
		first := g.Nodes[0].Lower
		switch first {
		case "is", "are", "was", "were", "did", "does", "do", "has", "have":
			return first
		}
	}
	return ""
}

// bucket accumulates triples while walking the tree (the paper's "triple
// bucket").
type bucket struct {
	g    *depparse.Graph
	ext  *Extraction
	opts Options
}

// superlativeBases maps superlative surface forms to (base adjective,
// descending?) for the §6 superlative extension.
var superlativeBases = map[string]struct {
	base string
	desc bool
}{
	"highest":  {"high", true},
	"tallest":  {"tall", true},
	"longest":  {"long", true},
	"deepest":  {"deep", true},
	"largest":  {"large", true},
	"biggest":  {"big", true},
	"oldest":   {"old", true},
	"heaviest": {"heavy", true},
	"richest":  {"rich", true},
	"widest":   {"wide", true},
	"smallest": {"small", false},
	"shortest": {"short", false},
	"youngest": {"young", false},
	"lowest":   {"low", false},
	"newest":   {"new", false},
}

// phraseOf renders the full noun phrase headed at node i (nn + amod +
// num modifiers in surface order, excluding determiners).
func (b *bucket) phraseOf(i int) string {
	g := b.g
	type part struct {
		idx  int
		text string
	}
	parts := []part{{i, g.Nodes[i].Text}}
	for _, e := range g.Children(i) {
		switch e.Rel {
		case depparse.RelNN, depparse.RelAmod, depparse.RelNum:
			parts = append(parts, part{int(e.Dep), g.Nodes[e.Dep].Text})
		}
	}
	for x := 0; x < len(parts); x++ {
		for y := x + 1; y < len(parts); y++ {
			if parts[y].idx < parts[x].idx {
				parts[x], parts[y] = parts[y], parts[x]
			}
		}
	}
	words := make([]string, len(parts))
	for k, p := range parts {
		words[k] = p.text
	}
	return strings.Join(words, " ")
}

// nounOnlyPhrase renders just the nn-compound (no adjectives), for
// class mapping ("Which famous book" → "book").
func (b *bucket) nounOnlyPhrase(i int) string {
	g := b.g
	type part struct {
		idx  int
		text string
	}
	parts := []part{{i, g.Nodes[i].Text}}
	for _, e := range g.Children(i) {
		if e.Rel == depparse.RelNN {
			parts = append(parts, part{int(e.Dep), g.Nodes[e.Dep].Text})
		}
	}
	for x := 0; x < len(parts); x++ {
		for y := x + 1; y < len(parts); y++ {
			if parts[y].idx < parts[x].idx {
				parts[x], parts[y] = parts[y], parts[x]
			}
		}
	}
	words := make([]string, len(parts))
	for k, p := range parts {
		words[k] = p.text
	}
	return strings.Join(words, " ")
}

func (b *bucket) add(t QueryTriple) { b.ext.Triples = append(b.ext.Triples, t) }

func (b *bucket) setExpected(k ExpectedKind, classText string) {
	b.ext.Expected = Expected{Kind: k, ClassText: classText}
}

// expectedFromWh maps the wh-word per Table 1.
func expectedFromWh(wh string) ExpectedKind {
	switch wh {
	case "who", "whom", "whose":
		return ExpectPerson
	case "where":
		return ExpectPlace
	case "when":
		return ExpectDate
	default:
		return ExpectAny
	}
}

// wordSlot is the text slot of node i's own word.
func (b *bucket) wordSlot(i int) Slot {
	return b.headSlot(b.g.Nodes[i].Text, i)
}

// headSlot is a text slot for a phrase headed by node i.
func (b *bucket) headSlot(text string, i int) Slot {
	n := &b.g.Nodes[i]
	return TextSlot(text, n.Lemma, n.Tag)
}

// textSlotFor builds an entity text slot from the node at index i,
// covering the node's full surface span (compound names, title-internal
// prepositions and capitalised articles: "The War of the Worlds").
func (b *bucket) textSlotFor(i int) Slot {
	return b.headSlot(b.entityPhraseOf(i), i)
}

// entityPhraseOf renders the contiguous surface span of the subtree
// rooted at i. Leading lowercase determiners are excluded; capitalised
// ones ("The Time Machine") are kept.
func (b *bucket) entityPhraseOf(i int) string {
	g := b.g
	lo, hi := i, i
	var walk func(int)
	walk = func(j int) {
		for _, e := range g.Children(j) {
			switch e.Rel {
			case depparse.RelPunct, depparse.RelCop, depparse.RelAux,
				depparse.RelAuxPass, depparse.RelAdvmod:
				continue
			case depparse.RelDet:
				w := g.Nodes[e.Dep].Text
				if w == "" || w[0] < 'A' || w[0] > 'Z' {
					continue // skip boundary lowercase determiners
				}
			}
			d := int(e.Dep)
			lo, hi = min(lo, d), max(hi, d)
			walk(d)
		}
	}
	walk(i)
	var words []string
	for j := lo; j <= hi; j++ {
		if t := g.Nodes[j].Tag; t == "." || t == "," || t == ":" || t == "SYM" || t == "POS" {
			continue
		}
		words = append(words, g.Nodes[j].Text)
	}
	return strings.Join(words, " ")
}

// imperativeLeads are sentence-initial verbs of list requests the
// pipeline does not cover ("Give me all books ..."), part of the
// coverage limitation the evaluation quantifies.
var imperativeLeads = map[string]bool{
	"give": true, "list": true, "show": true, "name": true, "tell": true,
	"find": true, "enumerate": true,
}

// run dispatches on the root's shape, mirroring the recursive
// root-first traversal described in §2.1.
func (b *bucket) run() {
	g := b.g
	if g.Root < 0 {
		return
	}
	if len(g.Nodes) > 0 && imperativeLeads[g.Nodes[0].Lower] {
		return
	}
	wh := b.ext.QuestionWord

	switch tag := g.Nodes[g.Root].Tag; {
	case strings.HasPrefix(tag, "VB"):
		b.verbRoot(g.Root, wh)
	case tag == "JJ" || tag == "JJS" || tag == "JJR":
		b.adjectiveRoot(g.Root, wh)
	case tag == "NN" || tag == "NNS" || tag == "NNP" || tag == "NNPS":
		b.nounRoot(g.Root, wh)
	}
}

// verbRoot handles verbal roots: passives ("Which book is written by
// X"), do-support ("Where did X die"), actives ("Who wrote X") and
// how-many clauses.
func (b *bucket) verbRoot(root int, wh string) {
	g := b.g

	subjPass, hasSubjPass := g.ChildByRel(root, depparse.RelNSubjPass)
	subj, hasSubj := g.ChildByRel(root, depparse.RelNSubj)
	dobj, hasDobj := g.ChildByRel(root, depparse.RelDObj)
	adv, hasAdv := g.ChildByRel(root, depparse.RelAdvmod)
	agentPhrase, agentIdx, hasAgent := b.firstPObjIdx(root)

	// Fronted prepositional wh: "In which city was X born?" — the
	// wh-determined pobj is the question variable, typed by its noun.
	if hasSubjPass && hasAgent && agentIdx >= 0 && b.whDetermined(agentIdx) {
		class := b.nounOnlyPhrase(agentIdx)
		b.add(QueryTriple{
			Subject:   VarSlot("x"),
			Predicate: TextSlot("rdf:type", "type", "IN"),
			Object:    b.headSlot(class, agentIdx),
			IsType:    true,
		})
		b.add(QueryTriple{
			Subject:   b.textSlotFor(subjPass),
			Predicate: b.wordSlot(root),
			Object:    VarSlot("x"),
		})
		b.setExpected(ExpectClass, class)
		return
	}

	// How-many clauses: the counted noun carries amod(many).
	if hasDobj && b.hasAmodMany(dobj) {
		b.howManyTransitive(root, dobj, wh)
		return
	}
	if hasSubj && b.hasAmodMany(subj) {
		b.howManyIntransitive(root, subj, agentPhrase, hasAgent)
		return
	}

	switch {
	case hasSubjPass:
		// Passive. The questioned element is either the wh-determined
		// passive subject ("Which book is written by X") or the wh word
		// itself ("Who is married to X") or an adverbial wh ("Where was
		// X born").
		if det, ok := g.ChildByRel(subjPass, depparse.RelDet); ok &&
			isWhDeterminer(&g.Nodes[det]) {
			// [?x rdf:type book] + [?x written agent]
			class := b.nounOnlyPhrase(subjPass)
			b.add(QueryTriple{
				Subject:   VarSlot("x"),
				Predicate: TextSlot("rdf:type", "type", "IN"),
				Object:    b.headSlot(class, subjPass),
				IsType:    true,
			})
			b.setExpected(ExpectClass, class)
			if hasAgent {
				b.add(QueryTriple{
					Subject:   VarSlot("x"),
					Predicate: b.wordSlot(root),
					Object:    agentPhrase,
				})
			}
			return
		}
		if g.Nodes[subjPass].Tag == "WP" || g.Nodes[subjPass].Tag == "WDT" {
			// "Who is married to X?"
			if hasAgent {
				b.add(QueryTriple{
					Subject:   VarSlot("x"),
					Predicate: b.wordSlot(root),
					Object:    agentPhrase,
				})
				b.setExpected(expectedFromWh(wh), "")
			}
			return
		}
		// "Where was Michael Jackson born?" / "When was Intel founded?"
		if hasAdv && (g.Nodes[adv].Tag == "WRB") {
			b.add(QueryTriple{
				Subject:   b.textSlotFor(subjPass),
				Predicate: b.wordSlot(root),
				Object:    VarSlot("x"),
			})
			b.setExpected(expectedFromWh(g.Nodes[adv].Lower), "")
			return
		}
		// Boolean passive: "Was X married to Y?" — extracted but typed
		// boolean (unsupported downstream).
		if hasAgent {
			b.add(QueryTriple{
				Subject:   b.textSlotFor(subjPass),
				Predicate: b.wordSlot(root),
				Object:    agentPhrase,
			})
			b.setExpected(ExpectBoolean, "")
		}
		return

	case hasAdv && g.Nodes[adv].Tag == "WRB" && hasSubj:
		// "Where did Abraham Lincoln die?" / "When did Frank Herbert die?"
		b.add(QueryTriple{
			Subject:   b.textSlotFor(subj),
			Predicate: b.wordSlot(root),
			Object:    VarSlot("x"),
		})
		b.setExpected(expectedFromWh(g.Nodes[adv].Lower), "")
		return

	case hasSubj && (g.Nodes[subj].Tag == "WP" || g.Nodes[subj].Lower == "who" || g.Nodes[subj].Lower == "what"):
		// "Who wrote The Time Machine?"
		if hasDobj {
			b.add(QueryTriple{
				Subject:   VarSlot("x"),
				Predicate: b.wordSlot(root),
				Object:    b.textSlotFor(dobj),
			})
			b.setExpected(expectedFromWh(wh), "")
		}
		return

	case hasSubj && b.whDetermined(subj):
		// "Which company developed Minecraft?"
		class := b.nounOnlyPhrase(subj)
		b.add(QueryTriple{
			Subject:   VarSlot("x"),
			Predicate: TextSlot("rdf:type", "type", "IN"),
			Object:    b.headSlot(class, subj),
			IsType:    true,
		})
		b.setExpected(ExpectClass, class)
		if hasDobj {
			b.add(QueryTriple{
				Subject:   VarSlot("x"),
				Predicate: b.wordSlot(root),
				Object:    b.textSlotFor(dobj),
			})
		} else if hasAgent {
			b.add(QueryTriple{
				Subject:   VarSlot("x"),
				Predicate: b.wordSlot(root),
				Object:    agentPhrase,
			})
		}
		return

	case hasSubj && hasDobj && b.whDetermined(dobj):
		// Fronted wh-object: "Which university did Einstein attend?"
		class := b.nounOnlyPhrase(dobj)
		b.add(QueryTriple{
			Subject:   VarSlot("x"),
			Predicate: TextSlot("rdf:type", "type", "IN"),
			Object:    b.headSlot(class, dobj),
			IsType:    true,
		})
		b.add(QueryTriple{
			Subject:   b.textSlotFor(subj),
			Predicate: b.wordSlot(root),
			Object:    VarSlot("x"),
		})
		b.setExpected(ExpectClass, class)
		return

	case hasSubj && hasDobj:
		// Boolean/declarative "Did X write Y": extracted, boolean.
		b.add(QueryTriple{
			Subject:   b.textSlotFor(subj),
			Predicate: b.wordSlot(root),
			Object:    b.textSlotFor(dobj),
		})
		b.setExpected(ExpectBoolean, "")
		return
	}
}

// adjectiveRoot handles copular adjective predicates: "How tall is X?"
// and booleans like "Is Frank Herbert still alive?" (§5 failure case).
func (b *bucket) adjectiveRoot(root int, wh string) {
	g := b.g
	subj, hasSubj := g.ChildByRel(root, depparse.RelNSubj)
	if !hasSubj {
		return
	}
	adv, hasAdv := g.ChildByRel(root, depparse.RelAdvmod)
	if hasAdv && g.Nodes[adv].Lower == "how" {
		// "How tall is X?" → [X][tall][?x], Numeric.
		b.add(QueryTriple{
			Subject:   b.textSlotFor(subj),
			Predicate: b.wordSlot(root),
			Object:    VarSlot("x"),
		})
		b.setExpected(ExpectNumeric, "")
		return
	}
	// "Is X still alive?" → [X][is][alive] per the paper's §5; the
	// predicate slot carries the adjective.
	b.add(QueryTriple{
		Subject:   b.textSlotFor(subj),
		Predicate: b.wordSlot(root),
		Object:    VarSlot("x"),
	})
	b.setExpected(ExpectBoolean, "")
}

// nounRoot handles copular questions rooted at a predicate nominal:
// "What is the height of Michael Jordan?", "Who is the mayor of
// Berlin?", "How many inhabitants are there in X?".
func (b *bucket) nounRoot(root int, wh string) {
	g := b.g
	if b.hasAmodMany(root) {
		// "How many inhabitants are there in X?"
		if obj, ok := b.firstPObj(root); ok {
			b.howManyOfPlace(root, obj)
		}
		return
	}
	obj, hasObj := b.firstPObj(root)
	_, hasCop := g.ChildByRel(root, depparse.RelCop)
	subj, hasSubj := g.ChildByRel(root, depparse.RelNSubj)
	// §6 extension: superlatives — "What is the highest mountain?" →
	// [?x rdf:type mountain] + [?x high ?v] extremised over ?v.
	if b.opts.Superlatives && hasCop && !hasObj {
		if sup, ok := b.superlativeAmod(root); ok {
			class := b.nounOnlyPhrase(root)
			b.add(QueryTriple{
				Subject:   VarSlot("x"),
				Predicate: TextSlot("rdf:type", "type", "IN"),
				Object:    b.headSlot(class, root),
				IsType:    true,
			})
			b.add(QueryTriple{
				Subject:   VarSlot("x"),
				Predicate: TextSlot(sup.base, sup.base, "JJ"),
				Object:    VarSlot("v"),
			})
			b.ext.Superlative = &Superlative{Desc: sup.desc, Adjective: sup.base}
			b.setExpected(ExpectClass, class)
			return
		}
	}
	// Possessive form: "What is Michael Jordan's height?" — the poss
	// dependent plays the of-complement role.
	if !hasObj {
		if possNode, ok := g.ChildByRel(root, depparse.RelPoss); ok {
			obj = b.textSlotFor(possNode)
			hasObj = true
		}
	}
	if !hasCop || !hasObj {
		return
	}
	// Predicate is the copular nominal ("height", "mayor", "largest
	// city"); subject is the of-object entity; variable is the wh side.
	if hasSubj && (g.Nodes[subj].Tag == "WP" || g.Nodes[subj].Tag == "WDT" || g.Nodes[subj].Tag == "WRB") {
		b.add(QueryTriple{
			Subject:   obj,
			Predicate: b.headSlot(b.phraseOf(root), root),
			Object:    VarSlot("x"),
		})
		b.setExpected(expectedFromWh(wh), "")
		return
	}
	// Wh-determined subject: "Which city is the capital of France?" —
	// the subject noun types the variable.
	if hasSubj && b.whDetermined(subj) {
		class := b.nounOnlyPhrase(subj)
		b.add(QueryTriple{
			Subject:   VarSlot("x"),
			Predicate: TextSlot("rdf:type", "type", "IN"),
			Object:    b.headSlot(class, subj),
			IsType:    true,
		})
		b.add(QueryTriple{
			Subject:   obj,
			Predicate: b.headSlot(b.phraseOf(root), root),
			Object:    VarSlot("x"),
		})
		b.setExpected(ExpectClass, class)
		return
	}
	// Declarative copular ("Ankara is the capital of Turkey") — boolean.
	if hasSubj {
		b.add(QueryTriple{
			Subject:   obj,
			Predicate: b.headSlot(b.phraseOf(root), root),
			Object:    b.textSlotFor(subj),
		})
		b.setExpected(ExpectBoolean, "")
	}
}

// howManyTransitive handles "How many pages does War and Peace have?"
// (predicate = counted noun) and "How many books did X write?" (count
// query, extracted but numerically unanswerable without aggregation).
func (b *bucket) howManyTransitive(root, counted int, wh string) {
	g := b.g
	subj, hasSubj := g.ChildByRel(root, depparse.RelNSubj)
	if !hasSubj {
		return
	}
	if g.Nodes[root].Lemma == "have" {
		b.add(QueryTriple{
			Subject:   b.textSlotFor(subj),
			Predicate: b.headSlot(b.nounOnlyPhrase(counted), counted),
			Object:    VarSlot("x"),
		})
		b.setExpected(ExpectNumeric, "")
		return
	}
	// Count query: [?x][V][S] + [?x rdf:type counted]; expected Numeric
	// (the answer stage has no aggregation, reproducing the coverage gap).
	b.add(QueryTriple{
		Subject:   VarSlot("x"),
		Predicate: TextSlot("rdf:type", "type", "IN"),
		Object:    b.headSlot(b.nounOnlyPhrase(counted), counted),
		IsType:    true,
	})
	b.add(QueryTriple{
		Subject:   VarSlot("x"),
		Predicate: b.wordSlot(root),
		Object:    b.textSlotFor(subj),
	})
	b.setExpected(ExpectNumeric, "")
}

// howManyIntransitive handles "How many people live in Ankara?" —
// idiomatically [Ankara][population][?x].
func (b *bucket) howManyIntransitive(root, counted int, place Slot, hasPlace bool) {
	if !hasPlace {
		return
	}
	g := b.g
	lem := g.Nodes[counted].Lemma
	if (lem == "person" || lem == "people" || lem == "inhabitant" || lem == "citizen") &&
		(g.Nodes[root].Lemma == "live" || g.Nodes[root].Lemma == "reside" || g.Nodes[root].Lemma == "dwell") {
		b.add(QueryTriple{
			Subject:   place,
			Predicate: TextSlot("population", "population", "NN"),
			Object:    VarSlot("x"),
		})
		b.setExpected(ExpectNumeric, "")
		return
	}
	// Other intransitive counts need aggregation: extract the count
	// query shape anyway.
	b.add(QueryTriple{
		Subject:   VarSlot("x"),
		Predicate: TextSlot("rdf:type", "type", "IN"),
		Object:    b.headSlot(b.nounOnlyPhrase(counted), counted),
		IsType:    true,
	})
	b.add(QueryTriple{
		Subject:   VarSlot("x"),
		Predicate: b.wordSlot(root),
		Object:    place,
	})
	b.setExpected(ExpectNumeric, "")
}

// howManyOfPlace handles "How many inhabitants are there in Berlin?".
func (b *bucket) howManyOfPlace(counted int, place Slot) {
	lem := b.g.Nodes[counted].Lemma
	if lem == "inhabitant" || lem == "person" || lem == "people" || lem == "citizen" || lem == "population" {
		b.add(QueryTriple{
			Subject:   place,
			Predicate: TextSlot("population", "population", "NN"),
			Object:    VarSlot("x"),
		})
		b.setExpected(ExpectNumeric, "")
	}
}

// helpers

// whDetermined reports whether node i carries a which/what determiner.
func (b *bucket) whDetermined(i int) bool {
	det, ok := b.g.ChildByRel(i, depparse.RelDet)
	return ok && isWhDeterminer(&b.g.Nodes[det])
}

// isWhDeterminer reports whether a determiner is "which" or "what".
func isWhDeterminer(det *token.Token) bool {
	return det.Tag == "WDT" || det.Lower == "which" || det.Lower == "what"
}

// superlativeAmod returns the superlative adjective modifying node i.
func (b *bucket) superlativeAmod(i int) (struct {
	base string
	desc bool
}, bool) {
	for _, e := range b.g.Children(i) {
		if e.Rel != depparse.RelAmod {
			continue
		}
		if sup, ok := superlativeBases[b.g.Nodes[e.Dep].Lower]; ok {
			return sup, true
		}
	}
	return struct {
		base string
		desc bool
	}{}, false
}

// hasAmodMany reports whether node i has amod(many|much).
func (b *bucket) hasAmodMany(i int) bool {
	for _, e := range b.g.Children(i) {
		if e.Rel == depparse.RelAmod {
			if w := b.g.Nodes[e.Dep].Lower; w == "many" || w == "much" {
				return true
			}
		}
	}
	return false
}

// firstPObj returns the pobj phrase of the first preposition attached to
// node i (the "by X" agent or "of X" complement).
func (b *bucket) firstPObj(i int) (Slot, bool) {
	s, _, ok := b.firstPObjIdx(i)
	return s, ok
}

// firstPObjIdx additionally reports the pobj head node index.
func (b *bucket) firstPObjIdx(i int) (Slot, int, bool) {
	g := b.g
	for _, e := range g.Children(i) {
		if e.Rel != depparse.RelPrep {
			continue
		}
		if obj, ok := g.ChildByRel(int(e.Dep), depparse.RelPObj); ok {
			return b.textSlotFor(obj), obj, true
		}
	}
	return Slot{}, -1, false
}
