package patterns

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/store"
)

// The miner Mine replaced, retained as its oracle: every sentence tags
// its own inter-mention span, a support set is a map of "s\x00o" pair
// keys built from the two terms' values, supervision reads the store
// in term space, and the taxonomy probes one support map with the keys
// of the other. It builds no prefix tree: the tree it filled never
// reached a reply. Its Store is refStore; the mined resource must come
// out the same.

type refPattern struct {
	Text    string
	Tokens  []string
	Support map[string]struct{}
	Props   map[rdf.Term]*PropFreq
}

type refStore struct {
	patterns map[string]*refPattern
	words    map[string]map[rdf.Term]*PropFreq
	subsumes map[string][]string
	synonyms [][]string
}

// referenceMine is the old Mine.
func referenceMine(k *kb.KB, corpus []kb.Sentence, cfg MinerConfig) *refStore {
	st := &refStore{
		patterns: map[string]*refPattern{},
		words:    map[string]map[rdf.Term]*PropFreq{},
		subsumes: map[string][]string{},
	}
	sn := k.Store.Snapshot()
	for _, sent := range corpus {
		st.ingest(sn, sent)
	}
	for text, p := range st.patterns {
		if len(p.Support) < cfg.MinSupport {
			delete(st.patterns, text)
		}
	}
	st.buildTaxonomy(cfg.SubsumeThreshold)
	return st
}

// ingest is the old per-sentence step.
func (st *refStore) ingest(sn *store.Snapshot, sent kb.Sentence) {
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
		return
	}
	text := strings.Join(toks, " ")

	pat, ok := st.patterns[text]
	if !ok {
		pat = &refPattern{Text: text, Tokens: toks,
			Support: map[string]struct{}{}, Props: map[rdf.Term]*PropFreq{}}
		st.patterns[text] = pat
	}
	pairKey := sent.Subject.Value + "\x00" + sent.Object.Value
	pat.Support[pairKey] = struct{}{}

	for _, prop := range referenceSupervise(sn, sent.Subject, sent.Object) {
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

// referenceSupervise is the old supervise, in term space.
func referenceSupervise(sn *store.Snapshot, s, o rdf.Term) []rdf.Term {
	var out []rdf.Term
	sn.ForEachMatch(rdf.Triple{S: s, O: o}, func(t rdf.Triple) bool {
		if strings.HasPrefix(t.P.Value, rdf.NSOnt) && t.P.Value != rdf.IRIPageLink {
			out = append(out, t.P)
		}
		return true
	})
	return out
}

// buildTaxonomy is the old taxonomy over support maps.
func (st *refStore) buildTaxonomy(threshold float64) {
	texts := make([]string, 0, len(st.patterns))
	for t := range st.patterns {
		texts = append(texts, t)
	}
	sort.Strings(texts)

	inclusion := func(a, b *refPattern) float64 { // |A ∩ B| / |A|
		if len(a.Support) == 0 {
			return 0
		}
		inter := 0
		for k := range a.Support {
			if _, ok := b.Support[k]; ok {
				inter++
			}
		}
		return float64(inter) / float64(len(a.Support))
	}

	parent := map[string]string{}
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
			ab := inclusion(a, b)
			ba := inclusion(b, a)
			switch {
			case ab >= threshold && ba >= threshold:
				union(ta, tb)
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

// sortedFreqs is the old ranking of one frequency map.
func sortedFreqs(m map[rdf.Term]*PropFreq) []PropFreq {
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

// TestMineMatchesReference crosses three corpora with three miner
// configurations, over the built-in KB and one at 4× its synthetic
// sizes, and holds every read of the mined resource to the reference
// miner's — and the taxonomy's own lists in the order it built them.
func TestMineMatchesReference(t *testing.T) {
	big := kb.DefaultConfig()
	big.SyntheticPersons *= 4
	big.SyntheticCities *= 4
	big.SyntheticBooks *= 4
	kbs := []struct {
		name string
		k    *kb.KB
	}{{"x1", kb.Default()}, {"x4", kb.Build(big)}}
	corpora := []kb.CorpusConfig{
		kb.DefaultCorpusConfig(),
		{Seed: 3, NoiseRate: 0.2, SentencesPerFact: 3},
		{Seed: 9, NoiseRate: 0, SentencesPerFact: 1},
	}
	miners := []MinerConfig{
		DefaultMinerConfig(),
		{MinSupport: 1, SubsumeThreshold: 0.5},
		{MinSupport: 5, SubsumeThreshold: 1},
	}
	for _, kc := range kbs {
		for _, cc := range corpora {
			corpus := kc.k.Corpus(cc)
			for _, mc := range miners {
				name := fmt.Sprintf("%s/corpus%+v/miner%+v", kc.name, cc, mc)
				t.Run(name, func(t *testing.T) {
					compareStores(t, Mine(kc.k, corpus, mc), referenceMine(kc.k, corpus, mc))
				})
			}
		}
	}
}

func compareStores(t *testing.T, got *Store, want *refStore) {
	t.Helper()
	ref := make([]*refPattern, 0, len(want.patterns))
	for _, p := range want.patterns {
		ref = append(ref, p)
	}
	sort.Slice(ref, func(i, j int) bool {
		if len(ref[i].Support) != len(ref[j].Support) {
			return len(ref[i].Support) > len(ref[j].Support)
		}
		return ref[i].Text < ref[j].Text
	})
	pats := got.Patterns()
	if len(pats) != len(ref) {
		t.Fatalf("%d patterns, reference %d", len(pats), len(ref))
	}
	for i, p := range pats {
		r := ref[i]
		if p.Text != r.Text || !reflect.DeepEqual(p.Tokens, r.Tokens) || p.SupportSize() != len(r.Support) {
			t.Fatalf("pattern %d = %q %q support %d, reference %q %q support %d",
				i, p.Text, p.Tokens, p.SupportSize(), r.Text, r.Tokens, len(r.Support))
		}
		if g, w := got.PropertiesForPattern(p.Text), sortedFreqs(r.Props); !reflect.DeepEqual(g, w) {
			t.Errorf("PropertiesForPattern(%q) = %v, reference %v", p.Text, g, w)
		}
		if g, w := got.Subsumers(p.Text), sortedSubsumers(want, p.Text); !reflect.DeepEqual(g, w) {
			t.Errorf("Subsumers(%q) = %v, reference %v", p.Text, g, w)
		}
		w := append([]string(nil), want.subsumes[p.Text]...)
		sort.Strings(w)
		if g := got.Subsumed(p.Text); !reflect.DeepEqual(g, w) {
			t.Errorf("Subsumed(%q) = %v, reference %v", p.Text, g, w)
		}
	}
	words := make([]string, 0, len(want.words))
	for w := range want.words {
		words = append(words, w)
	}
	sort.Strings(words)
	if g := got.Words(); !reflect.DeepEqual(g, words) {
		t.Fatalf("Words() = %v, reference %v", g, words)
	}
	for _, w := range words {
		if g, r := got.PropertiesForWord(w), sortedFreqs(want.words[w]); !reflect.DeepEqual(g, r) {
			t.Errorf("PropertiesForWord(%q) = %v, reference %v", w, g, r)
		}
		for prop, pf := range want.words[w] {
			if g := got.Frequency(w, prop); g != pf.Freq {
				t.Errorf("Frequency(%q, %v) = %d, reference %d", w, prop, g, pf.Freq)
			}
		}
	}
	// The taxonomy's lists as built: Subsumed sorts, so compare the raw
	// lists to hold the visiting order too.
	if !reflect.DeepEqual(got.subsumes, want.subsumes) {
		t.Errorf("subsumption lists = %v, reference %v", got.subsumes, want.subsumes)
	}
	if g := got.SynonymGroups(); !reflect.DeepEqual(g, want.synonyms) {
		t.Errorf("SynonymGroups() = %v, reference %v", g, want.synonyms)
	}
}

// sortedSubsumers is the old Subsumers over the reference store.
func sortedSubsumers(st *refStore, text string) []string {
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
