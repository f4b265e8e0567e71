package ner

import (
	"sort"
	"strings"

	"repro/internal/kb"
	"repro/internal/rdf"
)

// RefLinker is the Linker this package shipped before the boot-time
// indexes: a label map ranged over in full by every fuzzy lookup, a
// rune-slice Jaro-Winkler, a sort of every hit, and page links read
// from the live store per candidate. It is kept verbatim as the oracle
// the indexed Linker must equal — same candidates, same score bits,
// same order — and is exported to the external differential test only.
type RefLinker struct {
	kb           *kb.KB
	labelIndex   map[string][]rdf.Term
	labelOf      map[rdf.Term]string
	maxLabelLen  int
	globalDegree map[rdf.Term]int
	maxDegree    float64
}

func NewRefLinker(k *kb.KB) *RefLinker {
	l := &RefLinker{
		kb:           k,
		labelIndex:   map[string][]rdf.Term{},
		labelOf:      map[rdf.Term]string{},
		globalDegree: map[rdf.Term]int{},
	}
	k.Store.Snapshot().ForEachMatch(rdf.Triple{P: rdf.Label()}, func(t rdf.Triple) bool {
		if !strings.HasPrefix(t.S.Value, rdf.NSRes) {
			return true
		}
		key := strings.ToLower(t.O.Value)
		l.labelIndex[key] = append(l.labelIndex[key], t.S)
		if _, ok := l.labelOf[t.S]; !ok {
			l.labelOf[t.S] = t.O.Value
		}
		if n := len(tokenTexts(t.O.Value)); n > l.maxLabelLen {
			l.maxLabelLen = n
		}
		return true
	})
	for _, ents := range l.labelIndex {
		sort.Slice(ents, func(i, j int) bool { return ents[i].Compare(ents[j]) < 0 })
	}
	k.Store.Snapshot().ForEachMatch(rdf.Triple{P: rdf.NewIRI(rdf.IRIPageLink)}, func(t rdf.Triple) bool {
		l.globalDegree[t.S]++
		return true
	})
	for _, d := range l.globalDegree {
		if float64(d) > l.maxDegree {
			l.maxDegree = float64(d)
		}
	}
	if l.maxDegree == 0 {
		l.maxDegree = 1
	}
	return l
}

func (l *RefLinker) Spot(words []string) []Mention {
	var out []Mention
	n := len(words)
	used := make([]bool, n)
	maxLen := l.maxLabelLen
	if maxLen == 0 {
		maxLen = 1
	}
	for span := maxLen; span >= 1; span-- {
		for i := 0; i+span <= n; i++ {
			overlap := false
			for j := i; j < i+span; j++ {
				if used[j] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			gram := strings.Join(words[i:i+span], " ")
			ents := l.labelIndex[strings.ToLower(gram)]
			if len(ents) == 0 {
				continue
			}
			if !containsCapital(words[i : i+span]) {
				continue
			}
			m := Mention{Text: gram, Start: i, End: i + span}
			for _, e := range ents {
				m.Candidates = append(m.Candidates, Candidate{Entity: e, Label: l.labelOf[e]})
			}
			out = append(out, m)
			for j := i; j < i+span; j++ {
				used[j] = true
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (l *RefLinker) Disambiguate(mentions []Mention) []Mention {
	pool := map[rdf.Term]bool{}
	for _, m := range mentions {
		for _, c := range m.Candidates {
			pool[c.Entity] = true
		}
	}
	sameMention := func(m *Mention, e rdf.Term) bool {
		for _, c := range m.Candidates {
			if c.Entity == e {
				return true
			}
		}
		return false
	}
	link := rdf.NewIRI(rdf.IRIPageLink)
	for mi := range mentions {
		m := &mentions[mi]
		for ci := range m.Candidates {
			c := &m.Candidates[ci]
			local := 0
			l.kb.Store.Snapshot().ForEachMatch(rdf.Triple{S: c.Entity, P: link}, func(t rdf.Triple) bool {
				if pool[t.O] && !sameMention(m, t.O) {
					local++
				}
				return true
			})
			global := float64(l.globalDegree[c.Entity]) / l.maxDegree
			sim := refJaroWinkler(strings.ToLower(m.Text), strings.ToLower(c.Label))
			c.Score = 2.0*float64(local) + 0.5*global + sim
		}
		sort.SliceStable(m.Candidates, func(i, j int) bool {
			if m.Candidates[i].Score != m.Candidates[j].Score {
				return m.Candidates[i].Score > m.Candidates[j].Score
			}
			return m.Candidates[i].Entity.Compare(m.Candidates[j].Entity) < 0
		})
		if len(m.Candidates) > 0 {
			m.Entity = m.Candidates[0].Entity
		}
	}
	return mentions
}

func (l *RefLinker) Link(text string) []Mention {
	return l.Disambiguate(l.Spot(tokenTexts(text)))
}

func (l *RefLinker) Resolve(phrase string, context ...string) (rdf.Term, []Candidate, bool) {
	words := tokenTexts(phrase)
	if len(words) == 0 {
		return rdf.Term{}, nil, false
	}
	candidates := l.CandidatesFor(phrase)
	if len(candidates) == 0 {
		return rdf.Term{}, nil, false
	}
	m := Mention{Text: phrase, Start: 0, End: len(words), Candidates: candidates}
	ms := []Mention{m}
	for i, ctx := range context {
		if strings.EqualFold(ctx, phrase) {
			continue
		}
		cc := l.CandidatesFor(ctx)
		if len(cc) > 0 {
			ms = append(ms, Mention{Text: ctx, Start: 100 + i, End: 101 + i, Candidates: cc})
		}
	}
	ms = l.Disambiguate(ms)
	return ms[0].Entity, ms[0].Candidates, !ms[0].Entity.IsZero()
}

func (l *RefLinker) CandidatesFor(phrase string) []Candidate {
	tryExact := func(p string) []Candidate {
		ents := l.labelIndex[strings.ToLower(strings.TrimSpace(p))]
		out := make([]Candidate, 0, len(ents))
		for _, e := range ents {
			out = append(out, Candidate{Entity: e, Label: l.labelOf[e]})
		}
		return out
	}
	if cs := tryExact(phrase); len(cs) > 0 {
		return cs
	}
	lower := strings.ToLower(phrase)
	for _, art := range []string{"the ", "a ", "an "} {
		if strings.HasPrefix(lower, art) {
			if cs := tryExact(phrase[len(art):]); len(cs) > 0 {
				return cs
			}
		}
	}
	var out []Candidate
	if lower == "" {
		return nil
	}
	first := lower[0]
	for label, ents := range l.labelIndex {
		if label == "" || label[0] != first {
			continue
		}
		if sim := refJaroWinkler(lower, label); sim >= 0.92 {
			for _, e := range ents {
				out = append(out, Candidate{Entity: e, Label: l.labelOf[e], Score: sim})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity.Compare(out[j].Entity) < 0
	})
	const maxFuzzy = 5
	if len(out) > maxFuzzy {
		out = out[:maxFuzzy]
	}
	return out
}

// refJaroWinkler is the rune-slice Jaro-Winkler of internal/strsim
// before its kernel (strsim keeps its own copy as its own oracle).
func refJaroWinkler(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	j := refJaro(ra, rb)
	return j + float64(prefix)*0.1*(1-j)
}

func refJaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		for j := max(0, i-window); j <= min(lb-1, i+window); j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i], matchedB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	k := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[k] {
			k++
		}
		if ra[i] != rb[k] {
			trans++
		}
		k++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// CandidatesFor exposes the indexed lookup to the differential test.
func (l *Linker) CandidatesFor(phrase string) []Candidate {
	return l.candidatesFor(strings.ToLower(phrase))
}
