// Package patterns implements the relational-pattern substrate of §2.2.3:
// a PATTY-style miner (Nakashole et al. [6]) that extracts textual
// patterns denoting binary relations from an entity-annotated corpus,
// organises them with a support-set prefix tree, derives a subsumption
// taxonomy and synonym sets, and exposes the word→property frequency
// table the question answering pipeline ranks candidate predicates with.
//
// Mining follows the paper's sketch of PATTY:
//
//  1. for every corpus sentence with two entity mentions, the token
//     sequence between the mentions is lemmatised and normalised into a
//     pattern (determiners and pronouns are dropped);
//  2. distant supervision against the knowledge base types each pattern:
//     every KB property holding between the mention pair increments the
//     pattern's frequency for that property (in the observed direction);
//  3. a prefix tree stores pattern support sets (the sets of entity
//     pairs); support-set inclusion yields the subsumption taxonomy and
//     mutual inclusion yields synonym sets;
//  4. a word-level index aggregates pattern frequencies per content
//     lemma, which is exactly the lookup §2.2.3 performs ("die" →
//     deathPlace, birthPlace, residence ranked by frequency).
//
// Because the corpus verbaliser injects cross-relation noise (see
// internal/kb), the mined resource reproduces PATTY's documented defect:
// "deathPlace" carries a weak "born in" pattern and vice versa.
package patterns

import (
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
	// Support is the set of entity pairs ("s\x00o") observed.
	Support map[string]struct{}
	// Props maps property IRIs to frequencies.
	Props map[rdf.Term]*PropFreq
}

// SupportSize returns the number of distinct entity pairs.
func (p *Pattern) SupportSize() int { return len(p.Support) }

// Store is the mined pattern resource.
type Store struct {
	patterns map[string]*Pattern
	words    map[string]map[rdf.Term]*PropFreq
	tree     *prefixTree
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

// Mine runs the pipeline over the corpus.
func Mine(k *kb.KB, corpus []kb.Sentence, cfg MinerConfig) *Store {
	st := &Store{
		patterns: map[string]*Pattern{},
		words:    map[string]map[rdf.Term]*PropFreq{},
		tree:     newPrefixTree(),
		subsumes: map[string][]string{},
	}
	sn := k.Store.Snapshot()
	for _, sent := range corpus {
		st.ingest(sn, sent)
	}
	st.prune(cfg.MinSupport)
	st.buildTaxonomy(cfg.SubsumeThreshold)
	return st
}

// ingest processes one sentence.
func (st *Store) ingest(sn *store.Snapshot, sent kb.Sentence) {
	// Extract the text between the two mentions.
	var midStart, midEnd int
	firstIsSubject := sent.SubjStart <= sent.ObjStart
	if firstIsSubject {
		midStart, midEnd = sent.SubjEnd, sent.ObjStart
	} else {
		midStart, midEnd = sent.ObjEnd, sent.SubjStart
	}
	if midStart >= midEnd {
		return
	}
	toks := normalizeSpan(sent.Text[midStart:midEnd])
	if len(toks) == 0 || len(toks) > 6 {
		return // PATTY bounds pattern length; empty middles carry no relation
	}
	text := strings.Join(toks, " ")

	pat, ok := st.patterns[text]
	if !ok {
		pat = &Pattern{Text: text, Tokens: toks,
			Support: map[string]struct{}{}, Props: map[rdf.Term]*PropFreq{}}
		st.patterns[text] = pat
	}
	pairKey := sent.Subject.Value + "\x00" + sent.Object.Value
	pat.Support[pairKey] = struct{}{}
	st.tree.insert(toks, pairKey)

	// Distant supervision: which properties hold between the pair?
	for _, prop := range supervise(sn, sent.Subject, sent.Object) {
		pf := pat.Props[prop]
		if pf == nil {
			pf = &PropFreq{Property: prop}
			pat.Props[prop] = pf
		}
		pf.Freq++
		if firstIsSubject {
			pf.Forward++
		} else {
			pf.Inverse++
		}
		// Word-level index over content lemmas.
		for _, w := range toks {
			if !contentLemma(w) {
				continue
			}
			m := st.words[w]
			if m == nil {
				m = map[rdf.Term]*PropFreq{}
				st.words[w] = m
			}
			wf := m[prop]
			if wf == nil {
				wf = &PropFreq{Property: prop}
				m[prop] = wf
			}
			wf.Freq++
			if firstIsSubject {
				wf.Forward++
			} else {
				wf.Inverse++
			}
		}
	}
}

// supervise returns the dbont: object properties linking s and o in
// either direction (direction folded into the caller's bookkeeping).
func supervise(sn *store.Snapshot, s, o rdf.Term) []rdf.Term {
	var out []rdf.Term
	sn.ForEachMatch(rdf.Triple{S: s, O: o}, func(t rdf.Triple) bool {
		if strings.HasPrefix(t.P.Value, rdf.NSOnt) && t.P.Value != rdf.IRIPageLink {
			out = append(out, t.P)
		}
		return true
	})
	return out
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

// prune removes patterns under the support threshold.
func (st *Store) prune(minSupport int) {
	for text, p := range st.patterns {
		if len(p.Support) < minSupport {
			delete(st.patterns, text)
		}
	}
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

// Frequency returns the word-level frequency of (lemma, property).
func (st *Store) Frequency(lem string, prop rdf.Term) int {
	if m := st.words[strings.ToLower(lem)]; m != nil {
		if pf := m[prop]; pf != nil {
			return pf.Freq
		}
	}
	return 0
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
		if len(out[i].Support) != len(out[j].Support) {
			return len(out[i].Support) > len(out[j].Support)
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

// Subsumers returns the patterns that subsume the given pattern text in
// the mined taxonomy.
func (st *Store) Subsumers(text string) []string {
	var out []string
	for super, subs := range st.subsumes {
		for _, s := range subs {
			if s == text {
				out = append(out, super)
			}
		}
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
// inclusion, using the prefix tree's stored supports.
func (st *Store) buildTaxonomy(threshold float64) {
	texts := make([]string, 0, len(st.patterns))
	for t := range st.patterns {
		texts = append(texts, t)
	}
	sort.Strings(texts)

	inclusion := func(a, b *Pattern) float64 { // |A ∩ B| / |A|
		if len(a.Support) == 0 {
			return 0
		}
		inter := 0
		small, large := a.Support, b.Support
		for k := range small {
			if _, ok := large[k]; ok {
				inter++
			}
		}
		return float64(inter) / float64(len(a.Support))
	}

	parent := map[string]string{} // union-find for synonym groups
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	for i, ta := range texts {
		a := st.patterns[ta]
		for _, tb := range texts[i+1:] {
			b := st.patterns[tb]
			ab := inclusion(a, b) // fraction of a's support inside b
			ba := inclusion(b, a)
			switch {
			case ab >= threshold && ba >= threshold:
				union(ta, tb) // mutual inclusion: synonyms
			case ab >= threshold && len(b.Support) > len(a.Support):
				st.subsumes[tb] = append(st.subsumes[tb], ta)
			case ba >= threshold && len(a.Support) > len(b.Support):
				st.subsumes[ta] = append(st.subsumes[ta], tb)
			}
		}
	}
	groups := map[string][]string{}
	for _, t := range texts {
		r := find(t)
		groups[r] = append(groups[r], t)
	}
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		sort.Strings(g)
		st.synonyms = append(st.synonyms, g)
	}
	sort.Slice(st.synonyms, func(i, j int) bool {
		return st.synonyms[i][0] < st.synonyms[j][0]
	})
}
