// Package propmap implements §2.2 of the paper: mapping the subjects,
// predicates and objects of the extracted triple patterns to DBpedia
// entities, classes and properties.
//
// Per triple pattern t, the mapper produces the candidate predicate set
// P_t the paper describes:
//
//   - §2.2.1 verbs → object properties by greatest-common-subsequence
//     string similarity, expanded with the property-synonym pairs
//     derived from WordNet (Lin ≥ 0.75, Wu&Palmer ≥ 0.85), so
//     "written" → {dbont:writer, dbont:author};
//   - §2.2.2 nouns/adjectives → data properties by string similarity and
//     the adjective→attribute list ("tall" → dbont:height);
//   - §2.2.3 relational patterns → properties ranked by corpus pattern
//     frequency ("die" → {deathPlace, birthPlace, residence});
//   - §2.2.4 wh-determined nouns → entity classes by label;
//   - §2.2.5 named entities → resources via NED (page-link centrality +
//     string similarity).
//
// The Cartesian product of the per-triple candidate sets forms the
// candidate query set Q of §2.3, built by package answer.
//
// Built once at boot, by New: one row per property (compiled local name
// and label, label tokens, the initials of all three, synonym-pair
// rows), the distinct head words of the object properties resolved in
// WordNet, the class-label map. Paid per question: each predicate word
// is scored against the rows whose initials hold its first byte (or a
// first byte of its surface tokens), looked up in WordNet once and
// tested against each distinct head, and the signals merge in a short
// list kept in property-IRI order. A candidate points at its property's
// row and a mapped triple at its extraction's triple: neither is
// copied. Nothing is cached between questions.
//
// The bound is exact above strsim.Damping: a damped GCS score is at most
// Damping, so a name passes only through a part equal to the word or
// sharing its first byte, and a token overlap only through a shared token.
package propmap

import (
	"cmp"
	"fmt"
	"slices"
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

// Source labels where a candidate predicate came from.
type Source string

// Candidate sources.
const (
	SourceStrSim    Source = "strsim"    // §2.2.1/§2.2.2 string similarity
	SourceWordNet   Source = "wordnet"   // §2.2.1 property-synonym pairs
	SourceAdjective Source = "adjective" // §2.2.2 adjective list
	SourcePattern   Source = "pattern"   // §2.2.3 relational patterns
)

// PropCandidate is one candidate property for a predicate slot with its
// ranking signal.
type PropCandidate struct {
	// Property points at the Mapper's own row for the property: shared
	// by every candidate of every question, built once by New and never
	// written, so it is read-only.
	Property *kb.Property
	// Sim is the string-similarity component in [0,1].
	Sim float64
	// Freq is the relational-pattern frequency (0 when not
	// pattern-derived) — the §2.3.1 ranking signal.
	Freq   int
	Source Source
}

// RankScore combines frequency and similarity into the §2.3.1 ranking
// weight of the candidate: pattern frequency dominates, string
// similarity breaks ties and scores non-pattern candidates.
func (c PropCandidate) RankScore() float64 {
	return (float64(c.Freq) + 1) * (c.Sim + 0.5)
}

// MappedTriple is one triple pattern with every slot resolved.
type MappedTriple struct {
	// Original points into the Mapping's Extraction.Triples.
	Original *triplex.QueryTriple
	// Class is set for rdf:type triples.
	Class rdf.Term
	// Subject/Object entity resolution: either the variable or a KB
	// resource.
	SubjectVar string
	Subject    rdf.Term
	ObjectVar  string
	Object     rdf.Term
	// Predicates is P_t, sorted by descending RankScore.
	Predicates []PropCandidate
}

// Mapping is the output of §2.2 for a question.
type Mapping struct {
	Extraction *triplex.Extraction
	Triples    []MappedTriple
}

// Config toggles the ablatable components.
type Config struct {
	DisablePatterns        bool
	DisableWordNetSynonyms bool
	DisableCentrality      bool
	// StrSimThreshold is the minimum strsim Name.Score for §2.2.1/§2.2.2
	// candidates.
	StrSimThreshold float64
	// MaxCandidates caps P_t (keeps the §2.3 Cartesian product sane).
	MaxCandidates int
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{StrSimThreshold: 0.65, MaxCandidates: 6}
}

// Mapper resolves extraction slots against one KB. New compiles the
// schema into the tables below; mapping a question reads them and
// computes nothing about the schema again.
type Mapper struct {
	kb       *kb.KB
	wn       *wordnet.DB
	patterns *patterns.Store
	linker   *ner.Linker
	cfg      Config
	// synonymPairs maps a property local name to the similar-meaning
	// properties (§2.2.1's precomputed pair list).
	synonymPairs map[string][]kb.Property
	// rows holds one row per property: the object properties (the first
	// objects rows), then the data properties, both in KB order.
	rows    []propRow
	objects int
	// heads groups the object-property rows by head word.
	heads []headRow
	// byLocal finds the row of kb.PropertyByLocal's answer.
	byLocal map[string]int32
	// classes maps a lower-cased class label to the first class with it.
	classes map[string]rdf.Term
}

// propRow is everything §2.2.1/§2.2.2 need of one property.
type propRow struct {
	prop   kb.Property
	slot   int32       // rank of the IRI among the distinct ones: the final tie-break order
	name   strsim.Name // local name
	label  strsim.Name // label with its spaces removed
	tokens []string    // label tokens, for multi-word surface forms
	syn    []int32     // rows of its synonym pairs
	// initials holds the first bytes of the name's and label's parts and
	// of the label tokens: strSimCandidates' bound.
	initials strsim.Initials
}

// headRow is one distinct head word of the object properties.
type headRow struct {
	text string
	word wordnet.Word
	rows []int32
}

// New builds a Mapper. The patterns store may be nil (ablation).
func New(k *kb.KB, wn *wordnet.DB, pats *patterns.Store, linker *ner.Linker, cfg Config) *Mapper {
	m := &Mapper{kb: k, wn: wn, patterns: pats, linker: linker, cfg: cfg,
		objects: len(k.ObjectProperties), byLocal: map[string]int32{}, classes: map[string]rdf.Term{}}
	for _, c := range k.Classes {
		if l := strings.ToLower(c.Label); m.classes[l].IsZero() {
			m.classes[l] = c.Term
		}
	}
	var iris []string
	for _, p := range k.Properties() {
		r := propRow{prop: p,
			name:   strsim.CompileName(p.Term.LocalName()),
			label:  strsim.CompileName(strings.ReplaceAll(p.Label, " ", "")),
			tokens: strsim.Tokens(p.Label)}
		r.initials.AddName(r.name)
		r.initials.AddName(r.label)
		r.initials.AddTokens(r.tokens)
		m.rows = append(m.rows, r)
		iris = append(iris, p.Term.Value)
	}
	sort.Strings(iris)
	iris = slices.Compact(iris)
	headAt := map[string]int{}
	for i := range m.rows {
		r := &m.rows[i]
		r.slot = int32(sort.SearchStrings(iris, r.prop.Term.Value))
		if p, ok := k.PropertyByLocal(r.prop.Term.LocalName()); ok && p == r.prop {
			m.byLocal[r.prop.Term.LocalName()] = int32(i)
		}
		if i >= m.objects {
			continue
		}
		h := propertyHead(r.prop)
		at, ok := headAt[h]
		if !ok {
			at, headAt[h] = len(m.heads), len(m.heads)
			m.heads = append(m.heads, headRow{text: h})
			if wn != nil {
				m.heads[at].word = wn.Word(h, wordnet.Noun)
			}
		}
		m.heads[at].rows = append(m.heads[at].rows, int32(i))
	}
	m.buildSynonymPairs()
	return m
}

// propertyHead extracts the meaning-bearing word of a property name:
// the last camelCase part ("largestCity" → "city"), except for
// suffixes like Name/Place/Date/By where the first part carries it
// ("leaderName" → "leader", "foundedBy" → "founded").
func propertyHead(p kb.Property) string {
	parts := strsim.SplitIdentifier(p.Term.LocalName())
	if len(parts) == 0 {
		return strings.ToLower(p.Term.LocalName())
	}
	last := strings.ToLower(parts[len(parts)-1])
	if last == "name" || last == "place" || last == "date" || last == "by" {
		return strings.ToLower(parts[0])
	}
	return last
}

// buildSynonymPairs computes the §2.2.1 list of object-property pairs
// with similar meanings via the WordNet metrics over the head words of
// the property names (same head word is already covered by strsim).
func (m *Mapper) buildSynonymPairs() {
	m.synonymPairs = map[string][]kb.Property{}
	if m.cfg.DisableWordNetSynonyms {
		return
	}
	for _, ha := range m.heads {
		for _, hb := range m.heads {
			if ha.text == hb.text || !m.wn.Similar(ha.word, hb.word) {
				continue
			}
			for _, a := range ha.rows {
				m.rows[a].syn = append(m.rows[a].syn, hb.rows...)
			}
		}
	}
	for i := range m.rows[:m.objects] {
		r := &m.rows[i]
		sort.Slice(r.syn, func(i, j int) bool {
			return m.rows[r.syn[i]].prop.Term.Value < m.rows[r.syn[j]].prop.Term.Value
		})
		local := r.prop.Term.LocalName()
		for _, b := range r.syn {
			m.synonymPairs[local] = append(m.synonymPairs[local], m.rows[b].prop)
		}
	}
}

// SynonymsOf exposes the §2.2.1 pair list for a property local name.
func (m *Mapper) SynonymsOf(local string) []kb.Property {
	return m.synonymPairs[local]
}

// ErrUnmappable reports a slot that could not be resolved.
type ErrUnmappable struct {
	Slot   string
	Reason string
}

func (e *ErrUnmappable) Error() string {
	return fmt.Sprintf("propmap: cannot map %s: %s", e.Slot, e.Reason)
}

// Map runs §2.2 over an extraction.
func (m *Mapper) Map(ext *triplex.Extraction) (*Mapping, error) {
	out := &Mapping{Extraction: ext, Triples: make([]MappedTriple, 0, len(ext.Triples))}

	// Collect entity phrases for NED context.
	phrases := make([]string, 0, 2*len(ext.Triples))
	for _, t := range ext.Triples {
		for _, s := range []triplex.Slot{t.Subject, t.Object} {
			if !s.IsVar() && !t.IsType && s.Text != "" {
				phrases = append(phrases, s.Text)
			}
		}
	}

	for i := range ext.Triples {
		t := &ext.Triples[i]
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
		mt.Predicates = m.candidateProperties(t.Predicate)
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
func (m *Mapper) resolveClass(text, lem string) (rdf.Term, bool) {
	tryLabel := func(s string) (rdf.Term, bool) {
		c, ok := m.classes[strings.ToLower(strings.TrimSpace(s))]
		return c, ok
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
func (m *Mapper) resolveEntity(phrase string, context []string) (rdf.Term, bool) {
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

// slot is the merged candidate of one property IRI while P_t is
// assembled: at is the IRI's rank (propRow.slot), row the row that added
// it first.
type slot struct {
	at, row int32
	sim     float64
	freq    int
	src     Source
}

// rankScore is the RankScore of the candidate the slot becomes.
func (c slot) rankScore() float64 {
	return PropCandidate{Sim: c.sim, Freq: c.freq}.RankScore()
}

// merge folds one more signal for rows[row] into the slot of its IRI —
// keep the maximum similarity and the maximum pattern frequency — and
// returns the list, which it keeps in IRI order: a predicate has a
// handful of candidates, so a linear probe beats any table.
func (m *Mapper) merge(slots []slot, row int32, sim float64, freq int, src Source) []slot {
	at := m.rows[row].slot
	i := 0
	for i < len(slots) && slots[i].at < at {
		i++
	}
	if i == len(slots) || slots[i].at != at {
		return slices.Insert(slots, i, slot{at, row, sim, freq, src})
	}
	cur := &slots[i]
	if sim > cur.sim {
		cur.sim = sim
		if cur.freq == 0 {
			cur.src = src
		}
	}
	if freq > cur.freq {
		cur.freq = freq
		cur.src = SourcePattern
	}
	return slots
}

// candidateProperties assembles P_t for a predicate slot.
func (m *Mapper) candidateProperties(pred triplex.Slot) []PropCandidate {
	var buf [16]slot
	slots := buf[:0]

	lem := strings.ToLower(pred.Lemma)
	surface := strings.ToLower(pred.Text)
	isVerb := strings.HasPrefix(pred.Tag, "VB")
	isAdj := pred.Tag == "JJ" || pred.Tag == "JJR" || pred.Tag == "JJS"

	// §2.2.1: verbs → object properties by string similarity.
	if isVerb {
		slots = m.strSimCandidates(slots, lem, surface, true, SourceStrSim)
		// Derived noun against data properties ("die" → death → deathDate).
		if noun, ok := wordnet.NominalizationOf(lem); ok {
			slots = m.strSimCandidates(slots, noun, noun, false, SourceStrSim)
		}
	}

	// §2.2.2: nouns and adjectives → data properties (and noun-named
	// object properties like capital/mayor).
	if !isVerb && !isAdj {
		slots = m.strSimCandidates(slots, lem, surface, false, SourceStrSim)
		slots = m.strSimCandidates(slots, lem, surface, true, SourceStrSim)
		// WordNet similarity between the question noun and the property
		// head words ("wife" clears the §2.2.1 thresholds against
		// "spouse" although no string similarity exists). Identical
		// heads are already strsim hits.
		if !m.cfg.DisableWordNetSynonyms && m.wn != nil {
			if w := m.wn.Word(lem, wordnet.Noun); w.Known() {
				for _, h := range m.heads {
					if h.text != lem && m.wn.Similar(w, h.word) {
						for _, row := range h.rows {
							slots = m.merge(slots, row, 0.8, 0, SourceWordNet)
						}
					}
				}
			}
		}
	}
	if isAdj && m.wn != nil {
		if attr, ok := m.wn.AdjectiveAttribute(lem); ok {
			slots = m.strSimCandidates(slots, attr, attr, false, SourceAdjective)
			// Attribute nouns occasionally name object properties too.
			slots = m.strSimCandidates(slots, attr, attr, true, SourceAdjective)
		}
	}

	// §2.2.3: relational patterns, ranked by frequency.
	if !m.cfg.DisablePatterns && m.patterns != nil {
		for _, pf := range m.patterns.PropertiesForWord(lem) {
			if row, ok := m.byLocal[pf.Property.LocalName()]; ok {
				slots = m.merge(slots, row, 0, pf.Freq, SourcePattern)
			}
		}
	}

	// §2.2.1 expansion: add the WordNet-similar properties of every
	// candidate found so far, at 0.9 of the similarity it had then.
	if !m.cfg.DisableWordNetSynonyms {
		type expansion struct {
			row int32
			sim float64
		}
		var buf [32]expansion
		expand := buf[:0]
		for _, c := range slots {
			for _, syn := range m.rows[c.row].syn {
				expand = append(expand, expansion{syn, c.sim * 0.9})
			}
		}
		for _, e := range expand {
			slots = m.merge(slots, e.row, e.sim, 0, SourceWordNet)
		}
	}

	// Slots are in IRI order, so a stable sort by descending RankScore
	// leaves ties in IRI order. Only the candidates that survive the cut
	// are built.
	slices.SortStableFunc(slots, func(a, b slot) int { return cmp.Compare(b.rankScore(), a.rankScore()) })
	if m.cfg.MaxCandidates > 0 && len(slots) > m.cfg.MaxCandidates {
		slots = slots[:m.cfg.MaxCandidates]
	}
	out := make([]PropCandidate, len(slots))
	for i, c := range slots {
		out[i] = PropCandidate{Property: &m.rows[c.row].prop, Sim: c.sim, Freq: c.freq, Source: c.src}
	}
	return out
}

// strSimCandidates merges in the properties whose names clear the GCS
// string similarity threshold against the word (§2.2.1/§2.2.2), matching
// both the property local name and its label, labelled src.
//
// Only rows whose initials meet the word's are scored. Above
// strsim.Damping a Name.Score passes only where a part equals the word
// or shares its first byte, and a nonzero Jaccard needs a shared token,
// so the rows skipped could not clear the threshold.
func (m *Mapper) strSimCandidates(slots []slot, word, surface string, object bool, src Source) []slot {
	if word == "" {
		return slots
	}
	lo, hi := m.objects, len(m.rows)
	if object {
		lo, hi = 0, m.objects
	}
	var want strsim.Initials
	want.Add(word)
	// Multi-word surface forms ("largest city", "official language")
	// match labels by token overlap.
	var tokens []string
	multi := strings.Contains(surface, " ")
	if multi {
		tokens = strsim.Tokens(surface)
		want.AddTokens(tokens)
	}
	bound := m.cfg.StrSimThreshold > strsim.Damping
	for i := lo; i < hi; i++ {
		r := &m.rows[i]
		if bound && !r.initials.Meets(want) {
			continue
		}
		score := max(r.name.Score(word), r.label.Score(word))
		if multi {
			score = max(score, strsim.Jaccard(tokens, r.tokens))
		}
		if score >= m.cfg.StrSimThreshold {
			slots = m.merge(slots, int32(i), score, 0, src)
		}
	}
	return slots
}
