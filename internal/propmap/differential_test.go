package propmap_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/patterns"
	"repro/internal/propmap"
	"repro/internal/qald"
	"repro/internal/strsim"
	"repro/internal/testutil"
	"repro/internal/triplex"
	"repro/internal/wordnet"
)

var (
	patsOnce sync.Once
	pats     *patterns.Store
)

func minedPatterns() *patterns.Store {
	patsOnce.Do(func() {
		k := kb.Default()
		pats = patterns.Mine(k, k.Corpus(kb.DefaultCorpusConfig()), patterns.DefaultMinerConfig())
	})
	return pats
}

// configs are the default setup and every ablation that reaches §2.2,
// and a threshold of strsim.Damping: there a damped score passes, so
// strSimCandidates scores every row.
func configs() map[string]propmap.Config {
	noPatterns, noWordNet, noCentrality, uncapped := propmap.DefaultConfig(), propmap.DefaultConfig(), propmap.DefaultConfig(), propmap.DefaultConfig()
	noPatterns.DisablePatterns = true
	noWordNet.DisableWordNetSynonyms = true
	noCentrality.DisableCentrality = true
	uncapped.MaxCandidates, uncapped.StrSimThreshold = 0, 0.3
	damped := uncapped
	damped.StrSimThreshold = strsim.Damping
	return map[string]propmap.Config{"default": propmap.DefaultConfig(), "no-patterns": noPatterns,
		"no-wordnet": noWordNet, "no-centrality": noCentrality, "uncapped-low-threshold": uncapped,
		"uncapped-at-damping": damped}
}

func sameCandidates(got, want []propmap.PropCandidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, reference has %d\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if *g.Property != *w.Property || g.Freq != w.Freq || g.Source != w.Source ||
			math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			return fmt.Errorf("candidate %d = %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// TestMapMatchesReference maps every QALD question and every
// entity-template question with the table-driven Mapper and with the
// retained per-call reference: the Mappings must be deep-equal (and
// their similarities bit-equal), the errors the same ErrUnmappable.
func TestMapMatchesReference(t *testing.T) {
	k := kb.Default()
	linker := ner.NewLinker(k)
	var questions []string
	for _, q := range qald.FullSet() {
		questions = append(questions, q.Text)
	}
	questions = append(questions, testutil.EntityQuestions(k)...)
	var exts []*triplex.Extraction
	for _, q := range questions {
		for _, opts := range []triplex.Options{{}, {Superlatives: true}} {
			if ext, err := triplex.ExtractOpts(q, opts); err == nil {
				exts = append(exts, ext)
			}
		}
	}
	for name, cfg := range configs() {
		m := propmap.New(k, wordnet.Default(), minedPatterns(), linker, cfg)
		ref := propmap.NewRefMapper(k, wordnet.Default(), minedPatterns(), linker, cfg)
		mapped := 0
		for _, ext := range exts {
			got, err := m.Map(ext)
			want, refErr := ref.Map(ext)
			if !reflect.DeepEqual(err, refErr) {
				t.Errorf("%s: Map(%q) error = %v, reference %v", name, ext.Question, err, refErr)
				continue
			}
			if err != nil {
				continue
			}
			mapped++
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Map(%q) differs from the reference\n got %+v\nwant %+v", name, ext.Question, got.Triples, want.Triples)
				continue
			}
			for i := range got.Triples {
				if err := sameCandidates(got.Triples[i].Predicates, want.Triples[i].Predicates); err != nil {
					t.Errorf("%s: Map(%q) triple %d: %v", name, ext.Question, i, err)
				}
			}
		}
		if mapped < 1000 {
			t.Errorf("%s: only %d extractions mapped; the differential is not exercising §2.2", name, mapped)
		}
	}
}

// predicateSlots is a seeded stream of predicate slots: the vocabulary
// of the schema itself (name parts, heads, label words), the words the
// §2.2 tests and QALD questions use, and one-edit corruptions of both,
// under every tag class candidateProperties branches on, some with
// multi-word surface forms.
func predicateSlots(k *kb.KB, n int) []triplex.Slot {
	vocab := []string{"write", "written", "die", "bear", "born", "marry", "tall", "high", "long", "old", "heavy",
		"wife", "husband", "spouse", "movie", "film", "author", "writer", "page", "pages", "population", "elevation",
		"mayor", "capital", "height", "alive", "a", "e", "", "river", "driver", "largest city", "official language",
		"birth place", "Zürich", "ſpouse", "place", "name", "date", "by"}
	for _, p := range k.Properties() {
		vocab = append(vocab, strings.ToLower(p.Term.LocalName()), p.Label)
		vocab = append(vocab, strsim.SplitIdentifier(p.Term.LocalName())...)
	}
	for _, q := range qald.FullSet() {
		vocab = append(vocab, strings.Fields(strings.ToLower(strings.TrimRight(q.Text, "?.")))...)
	}
	rng := rand.New(rand.NewSource(14))
	tags := []string{"VB", "VBD", "VBN", "VBZ", "NN", "NNS", "NNP", "JJ", "JJR", "JJS", "IN", ""}
	pick := func() string {
		w := vocab[rng.Intn(len(vocab))]
		if r := []rune(w); len(r) > 0 && rng.Intn(4) == 0 {
			r[rng.Intn(len(r))] = rune('a' + rng.Intn(26))
			w = string(r)
		}
		return w
	}
	slots := make([]triplex.Slot, n)
	for i := range slots {
		lemma := pick()
		text := lemma
		switch rng.Intn(6) {
		case 0:
			text = pick() + " " + lemma
		case 1:
			text = strings.ToUpper(lemma)
		}
		slots[i] = triplex.TextSlot(text, lemma, tags[rng.Intn(len(tags))])
	}
	return slots
}

func TestCandidatePropertiesMatchReference(t *testing.T) {
	k := kb.Default()
	linker := ner.NewLinker(k)
	slots := predicateSlots(k, 1200)
	for name, cfg := range configs() {
		for _, ps := range []*patterns.Store{minedPatterns(), nil} {
			m := propmap.New(k, wordnet.Default(), ps, linker, cfg)
			ref := propmap.NewRefMapper(k, wordnet.Default(), ps, linker, cfg)
			hits := 0
			for _, slot := range slots {
				got, want := m.CandidateProperties(slot), ref.CandidateProperties(slot)
				if err := sameCandidates(got, want); err != nil {
					t.Errorf("%s (patterns %v): candidateProperties(%+v): %v", name, ps != nil, slot, err)
				}
				if len(got) > 0 {
					hits++
				}
			}
			if hits < len(slots)/4 {
				t.Errorf("%s: only %d of %d slots found candidates", name, hits, len(slots))
			}
			for _, p := range k.Properties() {
				local := p.Term.LocalName()
				if !reflect.DeepEqual(m.SynonymsOf(local), ref.SynonymsOf(local)) {
					t.Errorf("%s: SynonymsOf(%s) = %v, reference %v", name, local, m.SynonymsOf(local), ref.SynonymsOf(local))
				}
			}
		}
	}
}

// TestCandidatePropertiesAllocations holds P_t assembly to the result
// and what the word's own lookups allocate (pattern list, lower-casing,
// the tokens of a multi-word surface form) — not a table per predicate,
// a map entry or a split per property. The ceilings are what the code
// measures.
func TestCandidatePropertiesAllocations(t *testing.T) {
	k := kb.Default()
	m := propmap.New(k, wordnet.Default(), minedPatterns(), ner.NewLinker(k), propmap.DefaultConfig())
	for _, c := range []struct {
		slot    triplex.Slot
		ceiling float64
	}{
		{triplex.TextSlot("born", "bear", "VBN"), 1}, {triplex.TextSlot("spouse", "spouse", "NN"), 1},
		{triplex.TextSlot("tall", "tall", "JJ"), 2}, {triplex.TextSlot("largest city", "city", "NN"), 7},
	} {
		if len(m.CandidateProperties(c.slot)) == 0 {
			t.Fatalf("no candidates for %+v; the ceiling would measure the wrong path", c.slot)
		}
		n := testing.AllocsPerRun(200, func() { m.CandidateProperties(c.slot) })
		t.Logf("candidateProperties(%q, %q, %s): %v allocs/op, ceiling %v", c.slot.Text, c.slot.Lemma, c.slot.Tag, n, c.ceiling)
		if n > c.ceiling {
			t.Errorf("candidateProperties(%+v): %v allocs/op, ceiling %v", c.slot, n, c.ceiling)
		}
	}
}

// boundKB is a schema the built-in one lacks, whose labels and names do
// not share initials: a label part no name part begins with
// (lifePartner), a label token no part begins with (ex wife), names
// that begin with ſ (which EqualFold matches with s), the Kelvin sign or
// İ, and a property with no initials at all, whose empty label has a
// Jaccard of 1 against an all-blank surface.
const boundKB = `
@prefix dbo:  <http://dbpedia.org/ontology/> .
@prefix owl:  <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
dbo:Person a owl:Class ; rdfs:label "person"@en .
dbo:spouse a owl:ObjectProperty ; rdfs:label "lifePartner"@en .
dbo:formerSpouse a owl:ObjectProperty ; rdfs:label "ex wife"@en .
<http://dbpedia.org/ontology/ſibling> a owl:ObjectProperty .
<http://dbpedia.org/ontology/` + "\u212A" + `inship> a owl:ObjectProperty .
<http://dbpedia.org/ontology/İnventor> a owl:ObjectProperty .
dbo:height a owl:DatatypeProperty ; rdfs:label "height"@en .
<http://dbpedia.org/ontology/_> a owl:DatatypeProperty ; rdfs:label "" .
`

// TestStrSimBoundEdgeCases holds the mapper to the reference on the
// cases strSimCandidates' first-byte bound must let through: a word or
// name part that begins with a non-ASCII byte, a label whose parts or
// tokens begin where no name part does, and two empty token sets.
func TestStrSimBoundEdgeCases(t *testing.T) {
	k, err := kb.Load(strings.NewReader(boundKB), "bound.ttl")
	if err != nil {
		t.Fatal(err)
	}
	linker := ner.NewLinker(k)
	words := []string{"spouse", "ſpouse", "sibling", "ſibling", "partner", "life", "wife", "kinship",
		"Kinship", "inventor", "height", "eight", "x", "ex"}
	var slots []triplex.Slot
	for _, w := range words {
		for _, surface := range []string{w, "my " + w, "ex " + w, "  "} {
			for _, tag := range []string{"VB", "NN", "JJ"} {
				slots = append(slots, triplex.TextSlot(surface, w, tag))
			}
		}
	}
	cfgs := configs()
	hits := 0
	for _, name := range []string{"default", "uncapped-low-threshold", "uncapped-at-damping"} {
		m := propmap.New(k, wordnet.Default(), nil, linker, cfgs[name])
		ref := propmap.NewRefMapper(k, wordnet.Default(), nil, linker, cfgs[name])
		for _, slot := range slots {
			got, want := m.CandidateProperties(slot), ref.CandidateProperties(slot)
			if err := sameCandidates(got, want); err != nil {
				t.Errorf("%s: candidateProperties(%+v): %v", name, slot, err)
			}
			hits += len(got)
		}
	}
	if hits == 0 {
		t.Fatal("no candidates: the edge cases are not reaching §2.2")
	}
}

// TestCandidatesShareMapperRows holds §2.2 to pointing at what it reads:
// a candidate's Property is the Mapper's own row for it — the same
// pointer on every Map call, equal to the KB's property — and a mapped
// triple's Original is the extraction's own triple.
func TestCandidatesShareMapperRows(t *testing.T) {
	k := kb.Default()
	m := propmap.New(k, wordnet.Default(), minedPatterns(), ner.NewLinker(k), propmap.DefaultConfig())
	questions := testutil.EntityQuestions(k)[:200]
	for _, q := range qald.FullSet() {
		questions = append(questions, q.Text)
	}
	shared := 0
	for _, q := range questions {
		ext, err := triplex.ExtractOpts(q, triplex.Options{})
		if err != nil {
			continue
		}
		first, err := m.Map(ext)
		if err != nil {
			continue
		}
		again, err := m.Map(ext)
		if err != nil {
			t.Fatalf("%q: second Map: %v", q, err)
		}
		for i, mt := range first.Triples {
			if mt.Original != &ext.Triples[i] || again.Triples[i].Original != &ext.Triples[i] {
				t.Errorf("%q: triple %d's Original does not point into the extraction", q, i)
			}
			for j, c := range mt.Predicates {
				if c.Property != again.Triples[i].Predicates[j].Property {
					t.Errorf("%q: triple %d candidate %d: two Map calls return different Property pointers", q, i, j)
				}
				if p, ok := k.PropertyByLocal(c.Property.Term.LocalName()); !ok || p != *c.Property {
					t.Errorf("%q: candidate %v is not the KB's property %v", q, *c.Property, p)
				}
				shared++
			}
		}
	}
	if shared < 500 {
		t.Fatalf("only %d candidates checked; the test is not exercising §2.2", shared)
	}
}
