// Package ner spots named entities in question text and disambiguates
// them against the knowledge base. It substitutes the method of the
// paper's reference [15] (Hakimov et al., SWIM 2012): candidate entities
// come from label matching (a gazetteer over rdfs:label), and
// disambiguation scores each candidate by graph centrality over the
// wikiPageWikiLink graph restricted to the candidates of all co-spotted
// mentions, combined with string similarity between the mention and the
// entity label (§2.2.5).
//
// Built once at boot, by NewLinker from one pinned snapshot, by store
// ID — it scans the label and page-link triples as ID triples and reads
// terms only for their text: the entities in Term order with their
// labels, lower-cased labels and page-link adjacency; the distinct
// labels by first byte and length with a character-class set each; the
// exact-label map. Paid per question: lower-casing each phrase once
// (Disambiguate reads the lower-case text Resolve made), one map lookup,
// and — only when no label matches exactly — Jaro-Winkler against the
// few labels of one length band that share enough characters to reach
// the threshold. The request path reads no store and keeps no memo.
package ner

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/strsim"
)

// Candidate is one KB entity considered for a mention.
type Candidate struct {
	Entity rdf.Term
	Label  string
	Score  float64
}

// Mention is one spotted entity mention.
type Mention struct {
	// Text is the surface form.
	Text string
	// Start/End are token indexes (End exclusive).
	Start, End int
	// Candidates holds the scored candidates, best first (after
	// Disambiguate).
	Candidates []Candidate
	// Entity is the selected candidate's entity (zero before
	// disambiguation or if no candidate exists).
	Entity rdf.Term
	// lower is Text lower-cased, when the caller has it already; empty,
	// Disambiguate lower-cases Text itself.
	lower string
}

// Linker spots and disambiguates mentions against one KB. Everything in
// it is built by NewLinker, by store ID, and read-only afterwards.
type Linker struct {
	// ents holds every labelled entity and page-link endpoint in Term
	// order, so an index into it doubles as the tie-break rank.
	ents  []entity
	entID map[rdf.Term]int32
	// groups holds the distinct non-empty lower-cased labels by first
	// byte, each group ordered by rune length: the fuzzy pass reads one
	// length band of one group. exact finds a label's row.
	groups    [256][]label
	exact     map[string]*label
	maxDegree float64
}

type entity struct {
	term  rdf.Term
	label string  // its first rdfs:label
	lower string  // label, lower-cased
	links []int32 // page-link targets; the degree is their number
}

type label struct {
	lower string
	runes int
	chars uint64  // the charClass of every rune, as a bit set
	ents  []int32 // carriers, ascending
}

// charClass hashes a lower-cased rune into 64 classes, letters apart.
func charClass(r rune) uint {
	if 'a' <= r && r <= 'z' {
		return uint(r - 'a')
	}
	return 26 + uint(r)%38
}

// NewLinker builds the gazetteer and page-link indexes from one pinned
// snapshot of the KB's store, by ID: it scans the rdfs:label and
// page-link triples in POS order, keeps its rows in a slot slice
// indexed by store ID while it builds, and reads a term only to order
// the entities and to take their labels' text.
func NewLinker(k *kb.KB) *Linker {
	sn := k.Store.Snapshot()
	terms := sn.TermsView()
	l := &Linker{exact: map[string]*label{}}
	labelP, _ := sn.Lookup(rdf.Label())
	linkP, _ := sn.Lookup(rdf.NewIRI(rdf.IRIPageLink))
	// scan streams the (subject, object) pairs of predicate p in POS
	// order; an absent predicate has none.
	scan := func(p store.ID, fn func(s, o store.ID)) {
		if p != 0 {
			sn.ForEachMatchIDs([3]store.ID{0, p, 0}, func(s, _, o store.ID) bool {
				fn(s, o)
				return true
			})
		}
	}
	isEntity := func(s store.ID) bool { return strings.HasPrefix(terms[s-1].Value, rdf.NSRes) }

	// slot[id] is nonzero once store ID id is an entity, and 1 + its row
	// in ents once the rows are in Term order; firstLabel[id] is the ID
	// of its first label.
	slot := make([]int32, len(terms)+1)
	firstLabel := make([]store.ID, len(terms)+1)
	var ids []store.ID
	intern := func(id store.ID) {
		if slot[id] == 0 {
			slot[id] = 1
			ids = append(ids, id)
		}
	}
	scan(labelP, func(s, o store.ID) {
		if isEntity(s) {
			intern(s)
			if firstLabel[s] == 0 {
				firstLabel[s] = o
			}
		}
	})
	deg := make([]int32, len(terms)+1) // page links by subject ID
	links := 0
	scan(linkP, func(s, o store.ID) {
		intern(s)
		intern(o)
		deg[s]++
		links++
	})
	slices.SortFunc(ids, func(a, b store.ID) int { return terms[a-1].Compare(terms[b-1]) })
	l.ents = make([]entity, len(ids))
	l.entID = make(map[rdf.Term]int32, len(ids))
	adj := make([]int32, links) // every entity's page links, cut below
	l.maxDegree = 1
	for i, id := range ids {
		slot[id] = int32(i) + 1
		e := &l.ents[i]
		e.term = terms[id-1]
		l.entID[e.term] = int32(i)
		if lb := firstLabel[id]; lb != 0 {
			e.label = terms[lb-1].Value
			e.lower = strings.ToLower(e.label)
		}
		n := int(deg[id])
		e.links, adj = adj[:0:n], adj[n:]
		l.maxDegree = max(l.maxDegree, float64(n))
	}
	// A subject's targets come in ascending store ID.
	scan(linkP, func(s, o store.ID) {
		e := &l.ents[slot[s]-1]
		e.links = append(e.links, slot[o]-1)
	})

	// The labels: the carriers of each distinct lower-cased label. A
	// label literal's subjects come together in POS order, so each
	// literal is lower-cased once.
	carriers := map[string][]int32{}
	var last store.ID
	var key string
	scan(labelP, func(s, o store.ID) {
		if !isEntity(s) {
			return
		}
		if o != last {
			last = o
			key = strings.ToLower(terms[o-1].Value)
		}
		carriers[key] = append(carriers[key], slot[s]-1)
	})
	for key, ents := range carriers {
		lb := label{lower: key, runes: utf8.RuneCountInString(key), ents: ents}
		for _, r := range key {
			lb.chars |= 1 << charClass(r)
		}
		slices.Sort(lb.ents)
		if key == "" {
			l.exact[key] = &lb // in no group: the fuzzy pass never reads it
			continue
		}
		l.groups[key[0]] = append(l.groups[key[0]], lb)
	}
	for b := range l.groups {
		g := l.groups[b]
		sort.Slice(g, func(i, j int) bool {
			if g[i].runes != g[j].runes {
				return g[i].runes < g[j].runes
			}
			return g[i].lower < g[j].lower
		})
		for i := range g {
			l.exact[g[i].lower] = &g[i]
		}
	}
	return l
}

// candidates lists the carriers of a label as unscored candidates.
func (l *Linker) candidates(lb *label) []Candidate {
	out := make([]Candidate, len(lb.ents))
	for i, id := range lb.ents {
		out[i] = Candidate{Entity: l.ents[id].term, Label: l.ents[id].label}
	}
	return out
}

// Disambiguate scores every candidate of every mention and selects the
// best one per mention. The score combines (a) degree centrality in the
// page-link graph restricted to the candidates of the *other* mentions,
// (b) normalised global page-link degree, and (c) string similarity
// between mention text and entity label — the recipe of ref. [15] plus
// the paper's §2.2.5 string-similarity addition. It reads only the
// Linker's own indexes, never the store.
func (l *Linker) Disambiguate(mentions []Mention) []Mention {
	total := 0
	for _, m := range mentions {
		total += len(m.Candidates)
	}
	for mi := range mentions {
		m := &mentions[mi]
		text := m.lower
		if text == "" {
			text = strings.ToLower(m.Text)
		}
		others := total > len(m.Candidates)
		for ci := range m.Candidates {
			c := &m.Candidates[ci]
			local, global, lower := 0, 0.0, ""
			if id, ok := l.entID[c.Entity]; ok {
				e := &l.ents[id]
				global = float64(len(e.links)) / l.maxDegree
				if c.Label == e.label {
					lower = e.lower
				}
				// Local centrality: links into the other mentions'
				// candidates (own candidates must not reinforce each other).
				for i := 0; others && i < len(e.links); i++ {
					if candidateOfOther(mentions, mi, l.ents[e.links[i]].term) {
						local++
					}
				}
			}
			if lower == "" {
				lower = strings.ToLower(c.Label)
			}
			c.Score = 2.0*float64(local) + 0.5*global + strsim.JaroWinkler(text, lower)
		}
		slices.SortStableFunc(m.Candidates, func(a, b Candidate) int {
			if a.Score != b.Score {
				return cmp.Compare(b.Score, a.Score)
			}
			return a.Entity.Compare(b.Entity)
		})
		if len(m.Candidates) > 0 {
			m.Entity = m.Candidates[0].Entity
		}
	}
	return mentions
}

// candidateOfOther reports whether e is a candidate of some mention but
// not of mentions[own].
func candidateOfOther(mentions []Mention, own int, e rdf.Term) bool {
	found := false
	for mi := range mentions {
		for ci := range mentions[mi].Candidates {
			if mentions[mi].Candidates[ci].Entity == e {
				if mi == own {
					return false
				}
				found = true
			}
		}
	}
	return found
}

// Resolve links a single phrase, using optional context phrases for the
// centrality signal. It returns the selected entity and the scored
// candidate list.
func (l *Linker) Resolve(phrase string, context ...string) (rdf.Term, []Candidate, bool) {
	if strings.TrimSpace(phrase) == "" {
		return rdf.Term{}, nil, false // no token at all
	}
	lower := strings.ToLower(phrase)
	candidates := l.candidatesFor(lower)
	if len(candidates) == 0 {
		return rdf.Term{}, nil, false
	}
	ms := []Mention{{Text: phrase, Candidates: candidates, lower: lower}}
	for _, ctx := range context {
		if strings.EqualFold(ctx, phrase) {
			continue
		}
		ctxLower := strings.ToLower(ctx)
		if cc := l.candidatesFor(ctxLower); len(cc) > 0 {
			ms = append(ms, Mention{Text: ctx, Candidates: cc, lower: ctxLower})
		}
	}
	ms = l.Disambiguate(ms)
	return ms[0].Entity, ms[0].Candidates, !ms[0].Entity.IsZero()
}

// candidatesFor returns label-matched candidates for a lower-cased
// phrase, with fallbacks: exact label, then the phrase without a
// leading article, then a fuzzy pass over labels sharing the first
// letter (Jaro-Winkler ≥ 0.92).
func (l *Linker) candidatesFor(lower string) []Candidate {
	if lb, ok := l.exact[strings.TrimSpace(lower)]; ok {
		return l.candidates(lb)
	}
	for _, art := range [...]string{"the ", "a ", "an "} {
		if strings.HasPrefix(lower, art) {
			if lb, ok := l.exact[strings.TrimSpace(lower[len(art):])]; ok {
				return l.candidates(lb)
			}
		}
	}
	if lower == "" {
		return nil
	}
	return l.fuzzyCandidates(lower)
}

const (
	fuzzyMin = 0.92 // Jaro-Winkler floor of the fuzzy pass
	maxFuzzy = 5    // candidates it keeps
)

// fuzzyCandidates returns the maxFuzzy best carriers of labels that share
// lower's first byte and reach fuzzyMin, best first, ties in Term order.
//
// Only the labels that can reach it are scored. The Winkler boost is at
// most 0.4·(1−Jaro), so fuzzyMin needs Jaro ≥ 13/15; Jaro is at most
// (m/n + m/k + 1)/3 for m matched runes of n and k, so it needs
// 5m(n+k) ≥ 8nk. With m ≤ min(n, k) that bounds the length ratio by 0.6
// — one contiguous band of the length-ordered group — and with m bounded
// by the runes whose character class the other string has at all, it
// drops most of the band. Integer slack of one unit dwarfs any rounding
// in the float score, so nothing that would pass is dropped.
func (l *Linker) fuzzyCandidates(lower string) []Candidate {
	n, ascii := 0, true
	var count [64]int
	var chars uint64
	for _, r := range lower {
		n++
		ascii = ascii && r < utf8.RuneSelf
		count[charClass(r)]++
		chars |= 1 << charClass(r)
	}
	group := l.groups[lower[0]]
	type hit struct {
		sim float64
		ent int32
	}
	var top [maxFuzzy]hit
	kept := 0
	for g := sort.Search(len(group), func(i int) bool { return 5*group[i].runes >= 3*n }); g < len(group); g++ {
		lb := &group[g]
		k := lb.runes
		if 3*k > 5*n {
			break
		}
		m := n // less the runes of lower whose class the label lacks
		for absent := chars &^ lb.chars; absent != 0; absent &= absent - 1 {
			m -= count[bits.TrailingZeros64(absent)]
		}
		m = min(m, k-bits.OnesCount64(lb.chars&^chars))
		if 5*m*(n+k) < 8*n*k {
			continue
		}
		var sim float64
		if ascii && strings.HasPrefix(lb.lower, lower) {
			sim = strsim.PrefixJaroWinkler(n, k)
		} else {
			sim = strsim.JaroWinkler(lower, lb.lower)
		}
		if sim < fuzzyMin {
			continue
		}
		for _, ent := range lb.ents {
			i := kept
			for i > 0 && (top[i-1].sim < sim || (top[i-1].sim == sim && top[i-1].ent > ent)) {
				i--
			}
			if i == maxFuzzy {
				continue
			}
			kept = min(kept+1, maxFuzzy)
			copy(top[i+1:kept], top[i:])
			top[i] = hit{sim, ent}
		}
	}
	out := make([]Candidate, kept)
	for i, h := range top[:kept] {
		out[i] = Candidate{Entity: l.ents[h.ent].term, Label: l.ents[h.ent].label, Score: h.sim}
	}
	return out
}
