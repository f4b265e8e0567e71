package kb

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Sentence is one corpus sentence with its two entity mention
// annotations, the input format of the PATTY-style pattern miner
// (internal/patterns). The miner sees only the text and the mention
// spans; relation labels come from distant supervision against the KB,
// exactly as PATTY matches entity pairs against a knowledge base.
type Sentence struct {
	Text string
	// Subject/Object are the KB entities mentioned.
	Subject, Object rdf.Term
	// SubjStart/SubjEnd and ObjStart/ObjEnd are byte offsets of the two
	// mentions in Text.
	SubjStart, SubjEnd int
	ObjStart, ObjEnd   int
}

// CorpusConfig controls the synthetic corpus the verbaliser emits.
type CorpusConfig struct {
	Seed int64
	// NoiseRate is the probability that a fact is verbalised with a
	// pattern belonging to a *different* relation — the corpus noise the
	// paper discusses in PATTY ("deathPlace" containing "born in").
	NoiseRate float64
	// SentencesPerFact is the base number of verbalisations per fact.
	SentencesPerFact int
}

// DefaultCorpusConfig mirrors the noise level the paper complains about:
// present but small.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{Seed: 7, NoiseRate: 0.04, SentencesPerFact: 2}
}

// templates maps property local names to verbalisation templates.
// {S} and {O} are replaced by entity labels. The template distribution
// is what the pattern miner recovers; the paper's §2.2.3 frequency
// ranking depends on it.
var templates = map[string][]string{
	"author": {
		"{O} wrote {S}",
		"{S} was written by {O}",
		"{S} is a novel by {O}",
		"{O} is the author of {S}",
		"{O} penned {S}",
	},
	"writer": {
		"{O} wrote {S}",
		"{S} was written by {O}",
		"{O} is the writer of {S}",
	},
	"director": {
		"{O} directed {S}",
		"{S} was directed by {O}",
		"{S} is a film by {O}",
	},
	"starring": {
		"{O} starred in {S}",
		"{O} appeared in {S}",
		"{S} stars {O}",
		"{O} played in {S}",
	},
	"developer": {
		"{S} was developed by {O}",
		"{O} developed {S}",
		"{O} created {S}",
		"{O} released {S}",
	},
	"publisher": {
		"{S} was published by {O}",
		"{O} published {S}",
	},
	"musicComposer": {
		"{O} composed {S}",
		"{S} was composed by {O}",
	},
	"birthPlace": {
		"{S} was born in {O}",
		"{S} was born at {O}",
		"{S} grew up in {O}",
		"{S}, born in {O}, became famous",
	},
	"deathPlace": {
		"{S} died in {O}",
		"{S} died at {O}",
		"{S} passed away in {O}",
	},
	"residence": {
		"{S} lives in {O}",
		"{S} lived in {O}",
		"{S} resides in {O}",
	},
	"hometown": {
		"{S} grew up in {O}",
		"{S} is from {O}",
		"{S} was raised in {O}",
	},
	"spouse": {
		"{S} is married to {O}",
		"{S} married {O}",
		"{S} wed {O}",
	},
	"capital": {
		"{O} is the capital of {S}",
		"{S} has its capital at {O}",
	},
	"mayor": {
		"{O} is the mayor of {S}",
		"{O} was elected mayor of {S}",
	},
	"leaderName": {
		"{O} is the leader of {S}",
		"{O} leads {S}",
		"{O} is the president of {S}",
	},
	"chancellor": {
		"{O} is the chancellor of {S}",
	},
	"foundedBy": {
		"{S} was founded by {O}",
		"{O} founded {S}",
		"{O} established {S}",
		"{O} started {S}",
	},
	"team": {
		"{S} plays for {O}",
		"{S} played for {O}",
	},
	"country": {
		"{S} is located in {O}",
		"{S} lies in {O}",
		"{S} is a city in {O}",
	},
	"headquarter": {
		"{S} is headquartered in {O}",
		"{S} has its headquarters in {O}",
	},
	"almaMater": {
		"{S} studied at {O}",
		"{S} graduated from {O}",
		"{S} was educated at {O}",
		"{S} attended {O}",
	},
	"officialLanguage": {
		"{O} is the official language of {S}",
		"{O} is spoken in {S}",
	},
	"currency": {
		"{O} is the currency of {S}",
	},
	"award": {
		"{S} won the {O}",
		"{S} received the {O}",
		"{S} was awarded the {O}",
	},
	"location": {
		"{S} is located in {O}",
	},
	"crosses": {
		"{S} crosses {O}",
		"{S} spans {O}",
	},
	"largestCity": {
		"{O} is the largest city of {S}",
	},
	"sourceCountry": {
		"{S} starts in {O}",
		"{S} rises in {O}",
	},
}

// noiseMap lists which relations borrow each other's surface forms when
// noise strikes, reproducing PATTY's documented confusion pairs: the
// paper notes "deathPlace" carries the pattern "born in".
var noiseMap = map[string][]string{
	"deathPlace": {"birthPlace", "residence"},
	"birthPlace": {"deathPlace", "residence"},
	"residence":  {"deathPlace"},
	"hometown":   {"birthPlace"},
}

// Corpus verbalises the KB's object-property facts into annotated
// sentences. The output is deterministic for a given config. It walks
// the facts by ID and resolves each entity's label once per call.
func (kb *KB) Corpus(cfg CorpusConfig) []Sentence {
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Deterministic property order.
	props := make([]Property, len(kb.ObjectProperties))
	copy(props, kb.ObjectProperties)
	sort.Slice(props, func(i, j int) bool {
		return props[i].Term.Value < props[j].Term.Value
	})

	sn := kb.Store.Snapshot()
	terms := sn.TermsView()
	pids := make([]store.ID, len(props))
	facts := 0
	for i, prop := range props {
		if _, ok := templates[prop.Term.LocalName()]; !ok {
			continue
		}
		if id, ok := sn.Lookup(prop.Term); ok {
			pids[i] = id
			facts += sn.EstimateCardinalityIDs([3]store.ID{0, id, 0})
		}
	}
	out := make([]Sentence, 0, facts*max(cfg.SentencesPerFact, 0))

	labelID, _ := sn.Lookup(rdf.Label())
	labels := map[store.ID]string{}
	label := func(id store.ID) string {
		l, ok := labels[id]
		if !ok {
			l = labelByID(sn, id, labelID)
			labels[id] = l
		}
		return l
	}
	for i, prop := range props {
		if pids[i] == 0 {
			continue
		}
		local := prop.Term.LocalName()
		tmpls := templates[local]
		sn.ForEachMatchIDs([3]store.ID{0, pids[i], 0}, func(s, _, o store.ID) bool {
			obj := terms[o-1]
			if !obj.IsIRI() {
				return true
			}
			for k := 0; k < cfg.SentencesPerFact; k++ {
				srcTmpls := tmpls
				if lst, noisy := noiseMap[local]; noisy && rng.Float64() < cfg.NoiseRate {
					borrowed := lst[rng.Intn(len(lst))]
					if bt, ok := templates[borrowed]; ok {
						srcTmpls = bt
					}
				}
				tmpl := srcTmpls[rng.Intn(len(srcTmpls))]
				if sent, ok := renderSentence(tmpl, terms[s-1], obj, label(s), label(o)); ok {
					out = append(out, sent)
				}
			}
			return true
		})
	}
	return out
}

// labelByID is LabelIn by ID: the first rdfs:label of id, else its
// local name with underscores as spaces. labelID is 0 when the store
// holds no label.
func labelByID(sn *store.Snapshot, id, labelID store.ID) string {
	if labelID != 0 {
		if objs, _ := sn.PostingList([3]store.ID{id, labelID, 0}); len(objs) > 0 {
			return sn.Term(objs[0]).Value
		}
	}
	return strings.ReplaceAll(sn.Term(id).LocalName(), "_", " ")
}

// renderSentence substitutes the labels into the template and records
// the mention offsets.
func renderSentence(tmpl string, subj, obj rdf.Term, sLabel, oLabel string) (Sentence, bool) {
	si := strings.Index(tmpl, "{S}")
	oi := strings.Index(tmpl, "{O}")
	if si < 0 || oi < 0 {
		return Sentence{}, false
	}
	var sb strings.Builder
	sb.Grow(len(tmpl) - 6 + len(sLabel) + len(oLabel) + 1)
	var sStart, oStart int
	if si < oi {
		sb.WriteString(tmpl[:si])
		sStart = sb.Len()
		sb.WriteString(sLabel)
		sb.WriteString(tmpl[si+3 : oi])
		oStart = sb.Len()
		sb.WriteString(oLabel)
		sb.WriteString(tmpl[oi+3:])
	} else {
		sb.WriteString(tmpl[:oi])
		oStart = sb.Len()
		sb.WriteString(oLabel)
		sb.WriteString(tmpl[oi+3 : si])
		sStart = sb.Len()
		sb.WriteString(sLabel)
		sb.WriteString(tmpl[si+3:])
	}
	sb.WriteString(".")
	return Sentence{
		Text:      sb.String(),
		Subject:   subj,
		Object:    obj,
		SubjStart: sStart,
		SubjEnd:   sStart + len(sLabel),
		ObjStart:  oStart,
		ObjEnd:    oStart + len(oLabel),
	}, true
}
