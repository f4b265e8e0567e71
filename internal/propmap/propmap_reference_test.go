package propmap

import (
	"sort"
	"strings"

	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/patterns"
	"repro/internal/rdf"
	"repro/internal/strsim"
	"repro/internal/triplex"
	"repro/internal/wordnet"
)

// RefMapper is the Mapper this package shipped before the property row
// table: every call re-splits and re-lowers every property name,
// re-derives every head word, asks WordNet about every object property,
// and merges through a map and two sorts. It is kept verbatim as the
// oracle the table-driven Mapper must equal — same candidates, same
// float bits, same order, same errors — and is exported to the external
// differential test only.
type RefMapper struct {
	kb           *kb.KB
	wn           *wordnet.DB
	patterns     *patterns.Store
	linker       *ner.Linker
	cfg          Config
	synonymPairs map[string][]kb.Property
}

func NewRefMapper(k *kb.KB, wn *wordnet.DB, pats *patterns.Store, linker *ner.Linker, cfg Config) *RefMapper {
	m := &RefMapper{kb: k, wn: wn, patterns: pats, linker: linker, cfg: cfg}
	m.buildSynonymPairs()
	return m
}

// CandidateProperties exposes the table-driven P_t to the differential
// test.
func (m *Mapper) CandidateProperties(pred triplex.Slot) []PropCandidate {
	return m.candidateProperties(pred)
}

// buildSynonymPairs computes the §2.2.1 list of object-property pairs
// with similar meanings via the WordNet metrics over the head words of
// the property names.
func (m *RefMapper) buildSynonymPairs() {
	m.synonymPairs = map[string][]kb.Property{}
	if m.cfg.DisableWordNetSynonyms {
		return
	}
	props := m.kb.ObjectProperties
	for i, a := range props {
		for j, b := range props {
			if i == j {
				continue
			}
			ha, hb := propertyHead(a), propertyHead(b)
			if ha == hb {
				continue // same head word is already covered by strsim
			}
			if m.wn.Similar(m.wn.Word(ha, wordnet.Noun), m.wn.Word(hb, wordnet.Noun)) {
				m.synonymPairs[a.Term.LocalName()] = append(m.synonymPairs[a.Term.LocalName()], b)
			}
		}
	}
	for k := range m.synonymPairs {
		lst := m.synonymPairs[k]
		sort.Slice(lst, func(i, j int) bool { return lst[i].Term.Value < lst[j].Term.Value })
	}
}

// Map runs §2.2 over an extraction.
func (m *RefMapper) Map(ext *triplex.Extraction) (*Mapping, error) {
	out := &Mapping{Extraction: ext}

	// Collect entity phrases for NED context.
	var phrases []string
	for _, t := range ext.Triples {
		for _, s := range []triplex.Slot{t.Subject, t.Object} {
			if !s.IsVar() && !t.IsType && s.Text != "" {
				phrases = append(phrases, s.Text)
			}
		}
	}

	for _, t := range ext.Triples {
		mt := MappedTriple{Original: t}
		if t.IsType {
			cls, ok := m.resolveClass(t.Object.Text, t.Object.Lemma)
			if !ok {
				return nil, &ErrUnmappable{Slot: "class " + t.Object.Text,
					Reason: "no DBpedia class label matches"}
			}
			mt.Class = cls
			mt.SubjectVar = t.Subject.Var
			out.Triples = append(out.Triples, mt)
			continue
		}
		// Entities (§2.2.5).
		if t.Subject.IsVar() {
			mt.SubjectVar = t.Subject.Var
		} else {
			e, ok := m.resolveEntity(t.Subject.Text, phrases)
			if !ok {
				return nil, &ErrUnmappable{Slot: "entity " + t.Subject.Text,
					Reason: "no KB entity matches"}
			}
			mt.Subject = e
		}
		if t.Object.IsVar() {
			mt.ObjectVar = t.Object.Var
		} else {
			e, ok := m.resolveEntity(t.Object.Text, phrases)
			if !ok {
				return nil, &ErrUnmappable{Slot: "entity " + t.Object.Text,
					Reason: "no KB entity matches"}
			}
			mt.Object = e
		}
		// Predicates (§2.2.1–§2.2.3).
		mt.Predicates = m.CandidateProperties(t.Predicate)
		if len(mt.Predicates) == 0 {
			return nil, &ErrUnmappable{Slot: "predicate " + t.Predicate.Text,
				Reason: "no property candidates (neither relational patterns nor the DBpedia property list contain it)"}
		}
		out.Triples = append(out.Triples, mt)
	}
	return out, nil
}

// resolveClass maps a wh-determined noun to a DBpedia class by label
// (§2.2.4), with WordNet synonyms as fallback ("movie" → class Film).
func (m *RefMapper) resolveClass(text, lem string) (rdf.Term, bool) {
	tryLabel := func(s string) (rdf.Term, bool) {
		s = strings.ToLower(strings.TrimSpace(s))
		for _, c := range m.kb.Classes {
			if strings.ToLower(c.Label) == s {
				return c.Term, true
			}
		}
		return rdf.Term{}, false
	}
	if c, ok := tryLabel(text); ok {
		return c, true
	}
	if lem != "" && lem != text {
		if c, ok := tryLabel(lem); ok {
			return c, true
		}
	}
	if m.wn != nil {
		for _, syn := range m.wn.Synonyms(lem, wordnet.Noun) {
			if c, ok := tryLabel(syn); ok {
				return c, true
			}
		}
	}
	return rdf.Term{}, false
}

// resolveEntity links an entity phrase (§2.2.5).
func (m *RefMapper) resolveEntity(phrase string, context []string) (rdf.Term, bool) {
	if m.cfg.DisableCentrality {
		// Ablation: label match + string similarity only (first by IRI).
		e, cands, ok := m.linker.Resolve(phrase)
		if !ok {
			return rdf.Term{}, false
		}
		if len(cands) > 1 {
			best := cands[0]
			for _, c := range cands[1:] {
				if strsim.JaroWinkler(strings.ToLower(phrase), strings.ToLower(c.Label)) >
					strsim.JaroWinkler(strings.ToLower(phrase), strings.ToLower(best.Label)) {
					best = c
				}
			}
			return best.Entity, true
		}
		return e, true
	}
	e, _, ok := m.linker.Resolve(phrase, context...)
	return e, ok
}

// CandidateProperties assembles P_t for a predicate slot.
func (m *RefMapper) CandidateProperties(pred triplex.Slot) []PropCandidate {
	byIRI := map[rdf.Term]*PropCandidate{}
	addCand := func(c PropCandidate) {
		cur, ok := byIRI[c.Property.Term]
		if !ok {
			cc := c
			byIRI[c.Property.Term] = &cc
			return
		}
		// Merge: keep max sim, sum of freq sources (freq set once).
		if c.Sim > cur.Sim {
			cur.Sim = c.Sim
			if cur.Freq == 0 {
				cur.Source = c.Source
			}
		}
		if c.Freq > cur.Freq {
			cur.Freq = c.Freq
			cur.Source = SourcePattern
		}
	}

	lem := strings.ToLower(pred.Lemma)
	surface := strings.ToLower(pred.Text)
	isVerb := strings.HasPrefix(pred.Tag, "VB")
	isAdj := pred.Tag == "JJ" || pred.Tag == "JJR" || pred.Tag == "JJS"

	// §2.2.1: verbs → object properties by string similarity.
	if isVerb {
		m.strSimCandidates(lem, surface, true, SourceStrSim, addCand)
		// Derived noun against data properties ("die" → death → deathDate).
		if noun, ok := wordnet.NominalizationOf(lem); ok {
			m.strSimCandidates(noun, noun, false, SourceStrSim, addCand)
		}
	}

	// §2.2.2: nouns and adjectives → data properties (and noun-named
	// object properties like capital/mayor).
	if !isVerb && !isAdj {
		m.strSimCandidates(lem, surface, false, SourceStrSim, addCand)
		m.strSimCandidates(lem, surface, true, SourceStrSim, addCand)
		// WordNet similarity between the question noun and the property
		// head words ("wife" clears the §2.2.1 thresholds against
		// "spouse" although no string similarity exists).
		if !m.cfg.DisableWordNetSynonyms && m.wn != nil && m.wn.Word(lem, wordnet.Noun).Known() {
			for _, p := range m.kb.ObjectProperties {
				h := propertyHead(p)
				if h == lem {
					continue // identical heads are already strsim hits
				}
				if m.wn.Similar(m.wn.Word(lem, wordnet.Noun), m.wn.Word(h, wordnet.Noun)) {
					addCand(PropCandidate{Property: p, Sim: 0.8, Source: SourceWordNet})
				}
			}
		}
	}
	if isAdj && m.wn != nil {
		if attr, ok := m.wn.AdjectiveAttribute(lem); ok {
			m.strSimCandidates(attr, attr, false, SourceAdjective, addCand)
			// Attribute nouns occasionally name object properties too.
			m.strSimCandidates(attr, attr, true, SourceAdjective, addCand)
		}
	}

	// §2.2.3: relational patterns, ranked by frequency.
	if !m.cfg.DisablePatterns && m.patterns != nil {
		for _, pf := range m.patterns.PropertiesForWord(lem) {
			local := pf.Property.LocalName()
			if prop, ok := m.kb.PropertyByLocal(local); ok {
				addCand(PropCandidate{Property: prop, Freq: pf.Freq, Sim: 0, Source: SourcePattern})
			}
		}
	}

	// §2.2.1 expansion: add the WordNet-similar properties of every
	// candidate found so far.
	if !m.cfg.DisableWordNetSynonyms {
		var expand []PropCandidate
		for _, c := range byIRI {
			for _, syn := range m.synonymPairs[c.Property.Term.LocalName()] {
				expand = append(expand, PropCandidate{
					Property: syn, Sim: c.Sim * 0.9, Freq: 0, Source: SourceWordNet})
			}
		}
		sort.Slice(expand, func(i, j int) bool {
			return expand[i].Property.Term.Value < expand[j].Property.Term.Value
		})
		for _, c := range expand {
			addCand(c)
		}
	}

	out := make([]PropCandidate, 0, len(byIRI))
	for _, c := range byIRI {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RankScore() != out[j].RankScore() {
			return out[i].RankScore() > out[j].RankScore()
		}
		return out[i].Property.Term.Value < out[j].Property.Term.Value
	})
	if m.cfg.MaxCandidates > 0 && len(out) > m.cfg.MaxCandidates {
		out = out[:m.cfg.MaxCandidates]
	}
	return out
}

// strSimCandidates adds properties whose names clear the GCS string
// similarity threshold against the word (§2.2.1/§2.2.2), matching both
// the property local name and its label, labelled src.
func (m *RefMapper) strSimCandidates(word, surface string, object bool, src Source, add func(PropCandidate)) {
	if word == "" {
		return
	}
	var props []kb.Property
	if object {
		props = m.kb.ObjectProperties
	} else {
		props = m.kb.DataProperties
	}
	for _, p := range props {
		score := strsim.CompileName(p.Term.LocalName()).Score(word)
		if s2 := strsim.CompileName(strings.ReplaceAll(p.Label, " ", "")).Score(word); s2 > score {
			score = s2
		}
		// Multi-word surface forms ("largest city", "official language")
		// match labels by token overlap.
		if strings.Contains(surface, " ") {
			if s3 := strsim.Jaccard(strsim.Tokens(surface), strsim.Tokens(p.Label)); s3 > score {
				score = s3
			}
		}
		if score >= m.cfg.StrSimThreshold {
			add(PropCandidate{Property: p, Sim: score, Source: src})
		}
	}
}

// SynonymsOf is the reference's §2.2.1 pair list for a local name.
func (m *RefMapper) SynonymsOf(local string) []kb.Property { return m.synonymPairs[local] }
