// Package patterns implements the relational-pattern substrate of §2.2.3:
// a PATTY-style miner (Nakashole et al. [6]) that extracts textual
// patterns denoting binary relations from an entity-annotated corpus,
// derives a subsumption taxonomy and synonym sets from their support
// sets, and exposes the word→property frequency table the question
// answering pipeline ranks candidate predicates with.
//
// Mining follows the paper's sketch of PATTY:
//
//  1. for every corpus sentence with two entity mentions, the token
//     sequence between the mentions is lemmatised and normalised into a
//     pattern (determiners and pronouns are dropped);
//  2. distant supervision against the knowledge base types each pattern:
//     every KB property holding between the mention pair increments the
//     pattern's frequency for that property (in the observed direction);
//  3. each pattern keeps its support set (the set of entity pairs it
//     was observed with); support-set inclusion over the patterns' own
//     supports yields the subsumption taxonomy and mutual inclusion
//     yields synonym sets — what PATTY's prefix tree computes;
//  4. a word-level index aggregates pattern frequencies per content
//     lemma, which is exactly the lookup §2.2.3 performs ("die" →
//     deathPlace, birthPlace, residence ranked by frequency).
//
// Because the corpus verbaliser injects cross-relation noise (see
// internal/kb), the mined resource reproduces PATTY's documented defect:
// "deathPlace" carries a weak "born in" pattern and vice versa.
package patterns

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/kb"
	"repro/internal/nlp/lemma"
	"repro/internal/nlp/postag"
	"repro/internal/nlp/token"
	"repro/internal/rdf"
	"repro/internal/store"
)

// PropFreq is one property with its pattern-derived frequency.
type PropFreq struct {
	Property rdf.Term
	// Freq is the total occurrence count (both directions).
	Freq int
	// Forward counts occurrences where the first mention is the
	// property's RDF subject; Inverse counts the opposite order.
	Forward, Inverse int
}

// Pattern is one mined textual pattern.
type Pattern struct {
	// Text is the normalised lemma sequence, e.g. "be bear in".
	Text string
	// Tokens is Text split.
	Tokens []string
	// Props maps property IRIs to frequencies.
	Props map[rdf.Term]*PropFreq
	// support is the set of entity pairs observed, as the sorted pair
	// numbers of the Mine call that built the pattern.
	support []int32
}

// SupportSize returns the number of distinct entity pairs.
func (p *Pattern) SupportSize() int { return len(p.support) }

// Store is the mined pattern resource.
type Store struct {
	patterns map[string]*Pattern
	words    map[string]map[rdf.Term]*PropFreq
	// subsumption: pattern -> patterns it subsumes.
	subsumes map[string][]string
	synonyms [][]string
}

// MinerConfig tunes the mining thresholds.
type MinerConfig struct {
	// MinSupport drops patterns observed with fewer distinct pairs.
	MinSupport int
	// SubsumeThreshold is the support-inclusion fraction for taxonomy
	// edges (PATTY uses set inclusion on support sets).
	SubsumeThreshold float64
}

// DefaultMinerConfig mirrors the paper's setup.
func DefaultMinerConfig() MinerConfig {
	return MinerConfig{MinSupport: 2, SubsumeThreshold: 0.9}
}

// Mine runs the pipeline over the corpus. Its mentions are terms of k,
// as k.Corpus makes them; a sentence mentioning a term k lacks cannot
// be supervised and is skipped.
func Mine(k *kb.KB, corpus []kb.Sentence, cfg MinerConfig) *Store {
	m := newMiner(k.Store.Snapshot())
	for i := range corpus {
		m.ingest(&corpus[i])
	}
	st := &Store{
		patterns: make(map[string]*Pattern, len(m.mined)),
		words:    map[string]map[rdf.Term]*PropFreq{},
	}
	kept := make([]*Pattern, 0, len(m.mined))
	for _, mp := range m.mined {
		p := mp.pattern(m.sn, st.words)
		if len(p.support) >= cfg.MinSupport {
			st.patterns[p.Text] = p
			kept = append(kept, p)
		}
	}
	st.buildTaxonomy(kept, cfg.SubsumeThreshold)
	return st
}

// miner is the state of one Mine call. Every piece of work is done once
// per distinct input: a span is tagged once, a mention pair is numbered
// and supervised once.
type miner struct {
	sn *store.Snapshot
	// spans maps an inter-mention text to its pattern; nil when the span
	// makes none.
	spans  map[string]*minedPattern
	byText map[string]*minedPattern
	mined  []*minedPattern // in order of first sighting
	// pairs numbers the (subject, object) ID pairs; pair n's supervised
	// properties are props[propStart[n]:propStart[n+1]].
	pairs     map[[2]store.ID]int32
	propStart []int32
	props     []store.ID
	// collect appends a pair's dbont: relations other than pageLink.
	collect func(s, p, o store.ID) bool
	// last is the previous sentence's pair: a fact's sentences follow
	// one another in a corpus.
	lastS, lastO rdf.Term
	lastPair     int32
}

// minedPattern is a pattern while its sentences are counted.
type minedPattern struct {
	pat    *Pattern
	counts []propCount
}

type propCount struct {
	prop             store.ID
	forward, inverse int
}

func newMiner(sn *store.Snapshot) *miner {
	m := &miner{
		sn:        sn,
		spans:     map[string]*minedPattern{},
		byText:    map[string]*minedPattern{},
		pairs:     map[[2]store.ID]int32{},
		propStart: []int32{0},
		lastPair:  -1,
	}
	m.collect = func(_, p, _ store.ID) bool {
		if v := m.sn.Term(p).Value; strings.HasPrefix(v, rdf.NSOnt) && v != rdf.IRIPageLink {
			m.props = append(m.props, p)
		}
		return true
	}
	return m
}

// ingest processes one sentence.
func (m *miner) ingest(sent *kb.Sentence) {
	// Extract the text between the two mentions.
	var midStart, midEnd int
	forward := sent.SubjStart <= sent.ObjStart
	if forward {
		midStart, midEnd = sent.SubjEnd, sent.ObjStart
	} else {
		midStart, midEnd = sent.ObjEnd, sent.SubjStart
	}
	if midStart >= midEnd {
		return
	}
	n, ok := m.pair(sent.Subject, sent.Object)
	if !ok {
		return
	}
	mp := m.span(sent.Text[midStart:midEnd])
	if mp == nil {
		return
	}
	mp.pat.support = append(mp.pat.support, n)

	// Distant supervision: the properties holding between the pair.
	for _, prop := range m.props[m.propStart[n]:m.propStart[n+1]] {
		i := 0
		for i < len(mp.counts) && mp.counts[i].prop != prop {
			i++
		}
		if i == len(mp.counts) {
			mp.counts = append(mp.counts, propCount{prop: prop})
		}
		if forward {
			mp.counts[i].forward++
		} else {
			mp.counts[i].inverse++
		}
	}
}

// span returns the pattern an inter-mention text normalises to.
func (m *miner) span(text string) *minedPattern {
	if mp, ok := m.spans[text]; ok {
		return mp
	}
	var mp *minedPattern
	// PATTY bounds pattern length; empty middles carry no relation.
	if toks := normalizeSpan(text); len(toks) > 0 && len(toks) <= 6 {
		joined := strings.Join(toks, " ")
		if mp = m.byText[joined]; mp == nil {
			mp = &minedPattern{pat: &Pattern{Text: joined, Tokens: toks}}
			m.byText[joined] = mp
			m.mined = append(m.mined, mp)
		}
	}
	m.spans[text] = mp
	return mp
}

// pair returns the number of the (s, o) mention pair, supervising the
// pair against the KB the first time it is seen; false when the KB
// lacks a mention.
func (m *miner) pair(s, o rdf.Term) (int32, bool) {
	if m.lastPair >= 0 && s == m.lastS && o == m.lastO {
		return m.lastPair, true
	}
	sid, sok := m.sn.Lookup(s)
	oid, ook := m.sn.Lookup(o)
	if !sok || !ook {
		return 0, false
	}
	n, ok := m.pairs[[2]store.ID{sid, oid}]
	if !ok {
		n = int32(len(m.propStart) - 1)
		m.pairs[[2]store.ID{sid, oid}] = n
		m.sn.ForEachMatchIDs([3]store.ID{sid, 0, oid}, m.collect)
		m.propStart = append(m.propStart, int32(len(m.props)))
	}
	m.lastS, m.lastO, m.lastPair = s, o, n
	return n, true
}

// pattern finishes a counted pattern: its support becomes a set, its
// counts the property distribution, and each content lemma of its
// tokens adds the counts to the word-level index.
func (mp *minedPattern) pattern(sn *store.Snapshot, words map[string]map[rdf.Term]*PropFreq) *Pattern {
	p := mp.pat
	slices.Sort(p.support)
	p.support = slices.Compact(p.support)
	p.Props = make(map[rdf.Term]*PropFreq, len(mp.counts))
	if len(mp.counts) == 0 {
		return p
	}
	freqs := make([]PropFreq, len(mp.counts))
	for i, c := range mp.counts {
		freqs[i] = PropFreq{Property: sn.Term(c.prop), Freq: c.forward + c.inverse,
			Forward: c.forward, Inverse: c.inverse}
		p.Props[freqs[i].Property] = &freqs[i]
	}
	// Word-level index over content lemmas.
	for _, w := range p.Tokens {
		if !contentLemma(w) {
			continue
		}
		wm := words[w]
		if wm == nil {
			wm = map[rdf.Term]*PropFreq{}
			words[w] = wm
		}
		for _, f := range freqs {
			wf := wm[f.Property]
			if wf == nil {
				wf = &PropFreq{Property: f.Property}
				wm[f.Property] = wf
			}
			wf.Freq += f.Freq
			wf.Forward += f.Forward
			wf.Inverse += f.Inverse
		}
	}
	return p
}

// normalizeSpan tokenises, tags and lemmatises the inter-mention text,
// dropping determiners, pronouns and punctuation.
func normalizeSpan(text string) []string {
	words := token.Words(text)
	if len(words) == 0 {
		return nil
	}
	tagged := postag.Tag(words)
	var out []string
	for _, t := range tagged {
		switch t.Tag {
		case "DT", "PRP", "PRP$", ".", ",", ":", "SYM", "CC", "EX", "POS":
			continue
		}
		l := lemma.Lemma(t.Word, t.Tag)
		if l == "" {
			continue
		}
		out = append(out, strings.ToLower(l))
	}
	return out
}

// contentLemma reports whether the lemma should enter the word-level
// index (§2.2.3 counts relation-bearing words, not copulas/prepositions).
func contentLemma(w string) bool {
	switch w {
	case "be", "have", "do", "of", "in", "at", "on", "by", "to", "from",
		"with", "for", "as", "into", "up", "away", "its":
		return false
	}
	return len(w) > 1
}

// PropertiesForWord returns the properties associated with a lemma,
// sorted by descending frequency then IRI (the §2.2.3 ranking).
func (st *Store) PropertiesForWord(lem string) []PropFreq {
	m := st.words[strings.ToLower(lem)]
	out := make([]PropFreq, 0, len(m))
	for _, pf := range m {
		out = append(out, *pf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Property.Value < out[j].Property.Value
	})
	return out
}

// PropertiesForPattern returns the property distribution of an exact
// pattern text ("be bear in"), sorted by descending frequency.
func (st *Store) PropertiesForPattern(text string) []PropFreq {
	p, ok := st.patterns[strings.ToLower(strings.TrimSpace(text))]
	if !ok {
		return nil
	}
	out := make([]PropFreq, 0, len(p.Props))
	for _, pf := range p.Props {
		out = append(out, *pf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Property.Value < out[j].Property.Value
	})
	return out
}

// Patterns returns all mined patterns sorted by descending support.
func (st *Store) Patterns() []*Pattern {
	out := make([]*Pattern, 0, len(st.patterns))
	for _, p := range st.patterns {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].support) != len(out[j].support) {
			return len(out[i].support) > len(out[j].support)
		}
		return out[i].Text < out[j].Text
	})
	return out
}

// Words returns the indexed lemmas, sorted.
func (st *Store) Words() []string {
	out := make([]string, 0, len(st.words))
	for w := range st.words {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Subsumed returns the patterns subsumed by the given pattern text.
func (st *Store) Subsumed(text string) []string {
	out := append([]string(nil), st.subsumes[text]...)
	sort.Strings(out)
	return out
}

// SynonymGroups returns the synonym sets (mutual support inclusion),
// each sorted, groups ordered by first element.
func (st *Store) SynonymGroups() [][]string {
	return st.synonyms
}

// buildTaxonomy computes subsumption and synonym sets from support-set
// inclusion over the kept patterns' own supports, visiting every pair
// i < j of the text order once.
func (st *Store) buildTaxonomy(pats []*Pattern, threshold float64) {
	sort.Slice(pats, func(i, j int) bool { return pats[i].Text < pats[j].Text })

	parent := make([]int32, len(pats)) // union-find for synonym groups
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		if parent[x] == x {
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}

	subsumes := make([][]string, len(pats))
	for i, a := range pats {
		for j := i + 1; j < len(pats); j++ {
			b := pats[j]
			inter := float64(intersectionSize(a.support, b.support))
			ab := inter / float64(len(a.support)) // fraction of a's support inside b
			ba := inter / float64(len(b.support))
			switch {
			case ab >= threshold && ba >= threshold: // mutual inclusion: synonyms
				if ra, rb := find(int32(i)), find(int32(j)); ra != rb {
					parent[ra] = rb
				}
			case ab >= threshold && len(b.support) > len(a.support):
				subsumes[j] = append(subsumes[j], a.Text)
			case ba >= threshold && len(a.support) > len(b.support):
				subsumes[i] = append(subsumes[i], b.Text)
			}
		}
	}
	st.subsumes = map[string][]string{}
	for i, subs := range subsumes {
		if subs != nil {
			st.subsumes[pats[i].Text] = subs
		}
	}
	// Groups in text order of their first member, each sorted.
	groups := make([][]string, len(pats))
	var roots []int32
	for i, p := range pats {
		r := find(int32(i))
		if groups[r] == nil {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], p.Text)
	}
	for _, r := range roots {
		if len(groups[r]) >= 2 {
			st.synonyms = append(st.synonyms, groups[r])
		}
	}
}

// intersectionSize merges two sorted sets.
func intersectionSize(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
