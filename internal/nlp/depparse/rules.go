package depparse

import "strings"

// chunk is a base noun phrase: token span [start,end] with head index.
type chunk struct {
	start, end int // inclusive token indexes
	head       int
}

// ruleParser holds the state of one parse.
type ruleParser struct {
	g        *Graph
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
	return p.g.Nodes[i].Lower
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
// there is no head: only setRoot adds an edge from -1.
func (p *ruleParser) addEdge(head, dep int, rel Rel) {
	if dep < 0 || head < 0 || dep >= len(p.g.Nodes) || p.attached[dep] {
		return
	}
	p.g.Edges = append(p.g.Edges, Edge{Head: int32(head), Dep: int32(dep), Rel: rel})
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
	p.g.Edges = append(p.g.Edges, Edge{Head: -1, Dep: int32(i), Rel: RelRoot})
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
				p.addEdge(c.head, m, RelDet)
			case t == "PRP$" || t == "WP$":
				p.addEdge(c.head, m, RelPoss)
			case isAdjTag(t):
				p.addEdge(c.head, m, RelAmod)
			case t == "CD":
				p.addEdge(c.head, m, RelNum)
			case isNounTag(t):
				p.addEdge(c.head, m, RelNN)
			default:
				p.addEdge(c.head, m, RelDep)
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
		p.addEdge(adj, whIdx, RelAdvmod)
		p.addEdge(adj, beIdx, RelCop)
		if c, ok := p.nextChunkAfter(beIdx); ok {
			p.addEdge(adj, c.head, RelNSubj)
		}

	// Pattern A: passive with VBN ("Which book is written by X",
	// "Where was X born", "Who is married to Y", "In which city was X
	// born").
	case vbnIdx >= 0 && beIdx >= 0 && beIdx < vbnIdx:
		p.setRoot(vbnIdx)
		p.addEdge(vbnIdx, beIdx, RelAuxPass)
		// A fronted preposition + wh-chunk ("In which city ...") is a
		// prepositional complement of the participle, not its subject.
		fronted := p.tag(0) == "IN" && p.inChunk != nil && len(p.inChunk) > 1 &&
			p.inChunk[1] >= 0 && p.chunks[p.inChunk[1]].start == 1
		if fronted {
			c := p.chunks[p.inChunk[1]]
			p.addEdge(vbnIdx, 0, RelPrep)
			p.addEdge(0, c.head, RelPObj)
		}
		// Subject: wh-chunk or wh-word before be, else chunk between be
		// and the participle ("Where was Michael Jackson born").
		if c, ok := p.firstChunkBefore(beIdx); ok && !fronted {
			p.addEdge(vbnIdx, c.head, RelNSubjPass)
		} else if whIdx >= 0 && whIdx < beIdx && (p.tag(whIdx) == "WP" || p.tag(whIdx) == "WDT") && !fronted {
			p.addEdge(vbnIdx, whIdx, RelNSubjPass)
		}
		if whIdx >= 0 && p.tag(whIdx) == "WRB" {
			p.addEdge(vbnIdx, whIdx, RelAdvmod)
		}
		if c, ok := p.chunkBetween(beIdx, vbnIdx); ok {
			p.addEdge(vbnIdx, c.head, RelNSubjPass)
		}

	// Pattern E/I: do-support ("Where did X die", "When did X die",
	// "Did X write Y", "Which university did X attend").
	case doIdx >= 0 && mainVerb > doIdx:
		p.setRoot(mainVerb)
		p.addEdge(mainVerb, doIdx, RelAux)
		if whIdx >= 0 && whIdx < doIdx {
			switch {
			case p.tag(whIdx) == "WRB":
				p.addEdge(mainVerb, whIdx, RelAdvmod)
			case p.inChunk[whIdx] >= 0:
				// Fronted wh-object: "Which university did X attend?"
				p.addEdge(mainVerb, p.chunks[p.inChunk[whIdx]].head, RelDObj)
			default:
				p.addEdge(mainVerb, whIdx, RelDObj) // "What did X write"
			}
		}
		if c, ok := p.chunkBetween(doIdx, mainVerb); ok {
			p.addEdge(mainVerb, c.head, RelNSubj)
		}
		if c, ok := p.nextChunkAfter(mainVerb); ok {
			p.addEdge(mainVerb, c.head, RelDObj)
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
					p.addEdge(c2.head, whIdx, RelNSubj)
					p.addEdge(c2.head, beIdx, RelCop)
					p.addEdge(c2.head, c.head, RelPoss)
					p.addEdge(c.head, c.end+1, RelDep) // the 's marker
					break
				}
			}
			p.setRoot(c.head)
			p.addEdge(c.head, whIdx, RelNSubj)
			p.addEdge(c.head, beIdx, RelCop)
		} else {
			// "Who is X?" with X a proper noun chunk... no chunk found
			// means a bare predicate; fall back to the be verb as root.
			p.setRoot(beIdx)
			p.addEdge(beIdx, whIdx, RelNSubj)
		}

	// Pattern B': wh-adverb copula ("Where is X", "When is X").
	case whIdx >= 0 && p.tag(whIdx) == "WRB" && beIdx > whIdx:
		p.setRoot(beIdx)
		p.addEdge(beIdx, whIdx, RelAdvmod)
		if c, ok := p.nextChunkAfter(beIdx); ok {
			p.addEdge(beIdx, c.head, RelNSubj)
		}

	// Pattern G: active wh-subject ("Who wrote X", "Who founded Y",
	// "Which company developed Z" — wh inside chunk).
	case whIdx >= 0 && mainVerb > whIdx:
		p.setRoot(mainVerb)
		if c, ok := p.chunkAt(whIdx); ok {
			p.addEdge(mainVerb, c.head, RelNSubj)
		} else {
			p.addEdge(mainVerb, whIdx, RelNSubj)
		}
		if c, ok := p.nextChunkAfter(mainVerb); ok {
			p.addEdge(mainVerb, c.head, RelDObj)
		}
		if haveIdx := p.findFirst(0, func(i int) bool { return isHave(p.lower(i)) && i < mainVerb }); haveIdx >= 0 {
			p.addEdge(mainVerb, haveIdx, RelAux)
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
			p.addEdge(adjIdx, beIdx, RelCop)
			if hasSubj {
				p.addEdge(adjIdx, subj.head, RelNSubj)
			}
			if advIdx := p.findFirst(1, func(i int) bool { return p.tag(i) == "RB" }); advIdx >= 0 {
				p.addEdge(adjIdx, advIdx, RelAdvmod)
			}
		case hasSubj:
			// "Is X the Y of Z?": second chunk is the predicate nominal.
			if c2, ok := p.nextChunkAfter(subj.end + 1); ok {
				p.setRoot(c2.head)
				p.addEdge(c2.head, beIdx, RelCop)
				p.addEdge(c2.head, subj.head, RelNSubj)
			} else {
				p.setRoot(beIdx)
				p.addEdge(beIdx, subj.head, RelNSubj)
			}
		default:
			p.setRoot(beIdx)
		}

	// Pattern J: generic declarative / remaining verb clause.
	case mainVerb >= 0:
		p.setRoot(mainVerb)
		if c, ok := p.firstChunkBefore(mainVerb); ok {
			p.addEdge(mainVerb, c.head, RelNSubj)
		}
		if beIdx >= 0 && beIdx < mainVerb && p.tag(mainVerb) == "VBG" {
			p.addEdge(mainVerb, beIdx, RelAux)
		}
		if c, ok := p.nextChunkAfter(mainVerb); ok {
			p.addEdge(mainVerb, c.head, RelDObj)
		}

	// Copular declarative: "X is the Y of Z."
	case beIdx > 0:
		if subj, ok := p.firstChunkBefore(beIdx); ok {
			if pred, ok2 := p.nextChunkAfter(beIdx); ok2 {
				p.setRoot(pred.head)
				p.addEdge(pred.head, beIdx, RelCop)
				p.addEdge(pred.head, subj.head, RelNSubj)
			} else {
				p.setRoot(beIdx)
				p.addEdge(beIdx, subj.head, RelNSubj)
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
		p.addEdge(mainVerb, doIdx, RelAux)
		if okCounted {
			p.addEdge(mainVerb, counted.head, RelDObj)
			p.addEdge(counted.head, manyIdx, RelAmod)
		}
		p.addEdge(manyIdx, howIdx, RelAdvmod)
		if c, ok := p.chunkBetween(doIdx, mainVerb); ok {
			p.addEdge(mainVerb, c.head, RelNSubj)
		}
	case mainVerb > 0 && (beIdx < 0 || mainVerb < beIdx || mainVerb > beIdx):
		// "How many people live in Ankara": root = verb, counted noun is
		// the subject.
		p.setRoot(mainVerb)
		if okCounted {
			p.addEdge(mainVerb, counted.head, RelNSubj)
			p.addEdge(counted.head, manyIdx, RelAmod)
		}
		p.addEdge(manyIdx, howIdx, RelAdvmod)
	case beIdx > 0:
		// "How many inhabitants are there in X": root = counted noun.
		if okCounted {
			p.setRoot(counted.head)
			p.addEdge(counted.head, manyIdx, RelAmod)
			p.addEdge(counted.head, beIdx, RelCop)
		} else {
			p.setRoot(beIdx)
		}
		p.addEdge(manyIdx, howIdx, RelAdvmod)
	default:
		if okCounted {
			p.setRoot(counted.head)
			p.addEdge(counted.head, manyIdx, RelAmod)
		}
		p.addEdge(manyIdx, howIdx, RelAdvmod)
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
				p.addEdge(site, i, RelPrep)
				p.addEdge(i, i+1, RelPObj)
			}
			continue
		}
		site := p.prepSite(i)
		if site < 0 {
			continue
		}
		p.addEdge(site, i, RelPrep)
		p.addEdge(i, obj.head, RelPObj)
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
		rel := RelDep
		if p.tag(i) == "." || p.tag(i) == "," || p.tag(i) == ":" || p.tag(i) == "SYM" {
			rel = RelPunct
		}
		p.addEdge(g.Root, i, rel)
	}
}
