package kb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The corpus verbaliser Corpus replaced, retained as its oracle: it
// reads the facts in term space and resolves both labels of every
// sentence through LabelIn. The sentences must come out the same.

// referenceCorpus is the old (*KB).Corpus.
func referenceCorpus(kb *KB, cfg CorpusConfig) []Sentence {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Sentence

	props := make([]Property, len(kb.ObjectProperties))
	copy(props, kb.ObjectProperties)
	sort.Slice(props, func(i, j int) bool {
		return props[i].Term.Value < props[j].Term.Value
	})

	sn := kb.Store.Snapshot()
	for _, prop := range props {
		local := prop.Term.LocalName()
		tmpls, ok := templates[local]
		if !ok {
			continue
		}
		facts := sn.Match(rdf.Triple{P: prop.Term})
		for _, f := range facts {
			if !f.O.IsIRI() {
				continue
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
				if s, ok := referenceRenderSentence(sn, tmpl, f.S, f.O); ok {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// referenceRenderSentence is the old renderSentence.
func referenceRenderSentence(sn *store.Snapshot, tmpl string, subj, obj rdf.Term) (Sentence, bool) {
	sLabel := LabelIn(sn, subj)
	oLabel := LabelIn(sn, obj)
	si := strings.Index(tmpl, "{S}")
	oi := strings.Index(tmpl, "{O}")
	if si < 0 || oi < 0 {
		return Sentence{}, false
	}
	var sb strings.Builder
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

// TestCorpusMatchesReference holds Corpus to the reference sentence for
// sentence, over the built-in KB and one at 4× its synthetic sizes.
func TestCorpusMatchesReference(t *testing.T) {
	big := DefaultConfig()
	big.SyntheticPersons *= 4
	big.SyntheticCities *= 4
	big.SyntheticBooks *= 4
	for _, kc := range []struct {
		name string
		k    *KB
	}{{"x1", Default()}, {"x4", Build(big)}} {
		for _, cfg := range []CorpusConfig{
			DefaultCorpusConfig(),
			{Seed: 3, NoiseRate: 0.2, SentencesPerFact: 3},
			{Seed: 9, NoiseRate: 0, SentencesPerFact: 1},
		} {
			t.Run(fmt.Sprintf("%s/%+v", kc.name, cfg), func(t *testing.T) {
				got, want := kc.k.Corpus(cfg), referenceCorpus(kc.k, cfg)
				if len(got) != len(want) {
					t.Fatalf("%d sentences, reference %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("sentence %d = %+v, reference %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
