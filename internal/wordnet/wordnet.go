// Package wordnet provides the lexical-semantic substrate of §2.2: a
// compact WordNet-style database (synsets, hypernym taxonomy,
// information content) with the Lin and Wu & Palmer similarity metrics
// the paper computes through WordNet::Similarity [14], plus the
// adjective→attribute table the paper builds with the JAWS API (§2.2.2,
// "tall" → "height").
//
// The database is embedded (data.go) and covers the DBpedia-ontology
// vocabulary plus the QALD question vocabulary. That is the coverage the
// paper actually exercises: its §2.2.1 uses WordNet only to decide which
// property-name pairs are synonymous (Lin ≥ 0.75, Wu&Palmer ≥ 0.85) and
// its §2.2.2 maps adjectives to data-property nouns.
package wordnet

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// POS tags for synsets.
const (
	Noun      = "n"
	Verb      = "v"
	Adjective = "a"
)

// Synset is one concept with its member words.
type Synset struct {
	ID    string
	POS   string
	Words []string
	// Hypernyms lists parent synset IDs (the taxonomy is a DAG).
	Hypernyms []string
	// Attribute links an adjective synset to the noun attribute it
	// describes (tall -> height), as WordNet's attribute pointer does.
	Attribute string
	// Freq is the synthetic corpus frequency used for information
	// content; leaves default to 1.
	Freq float64
}

// DB is an immutable WordNet-style database. Build numbers the synsets
// densely (in ID order) and closes the taxonomy once, so a similarity
// between two synsets intersects two short sorted ancestor lists and
// walks no hypernym chain.
type DB struct {
	synsets map[string]*Synset
	index   map[string]int32   // synset ID -> dense index
	list    []*Synset          // by dense index
	byWord  map[string][]int32 // "pos\x00word" -> synsets, ascending
	depth   map[string]int     // min depth from root (root = 1)
	cumFreq map[string]float64 // freq including all descendants
	total   float64            // total cumulative frequency at roots
	// Per dense index: ancestors including itself (ascending), depth,
	// information content.
	anc    [][]int32
	depths []int
	ics    []float64
}

var (
	defaultOnce sync.Once
	defaultDB   *DB
)

// Default returns the embedded database, building it on first use.
func Default() *DB {
	defaultOnce.Do(func() {
		defaultDB = Build(embeddedSynsets())
	})
	return defaultDB
}

// Build constructs a DB from synsets, computing depths and information
// content. Unknown hypernym references are dropped.
func Build(synsets []*Synset) *DB {
	db := &DB{
		synsets: make(map[string]*Synset, len(synsets)),
		index:   make(map[string]int32, len(synsets)),
		byWord:  make(map[string][]int32),
		depth:   make(map[string]int),
		cumFreq: make(map[string]float64),
	}
	for _, s := range synsets {
		db.synsets[s.ID] = s
		if s.Freq == 0 {
			s.Freq = 1
		}
	}
	// Prune dangling hypernyms.
	for _, s := range db.synsets {
		kept := s.Hypernyms[:0]
		for _, h := range s.Hypernyms {
			if _, ok := db.synsets[h]; ok {
				kept = append(kept, h)
			}
		}
		s.Hypernyms = kept
	}
	// Dense numbering and word index, both in ID order.
	for _, s := range db.synsets {
		db.list = append(db.list, s)
	}
	sort.Slice(db.list, func(i, j int) bool { return db.list[i].ID < db.list[j].ID })
	for i, s := range db.list {
		db.index[s.ID] = int32(i)
		for _, w := range s.Words {
			key := s.POS + "\x00" + strings.ToLower(w)
			db.byWord[key] = append(db.byWord[key], int32(i))
		}
	}
	// Depths (roots have depth 1), via memoised DFS.
	var depthOf func(id string, seen map[string]bool) int
	depthOf = func(id string, seen map[string]bool) int {
		if d, ok := db.depth[id]; ok {
			return d
		}
		if seen[id] {
			return 1 // cycle guard
		}
		seen[id] = true
		s := db.synsets[id]
		if len(s.Hypernyms) == 0 {
			db.depth[id] = 1
			return 1
		}
		best := math.MaxInt32
		for _, h := range s.Hypernyms {
			if d := depthOf(h, seen); d+1 < best {
				best = d + 1
			}
		}
		db.depth[id] = best
		return best
	}
	for id := range db.synsets {
		depthOf(id, map[string]bool{})
	}
	// Cumulative frequency: freq of synset plus all descendants.
	children := map[string][]string{}
	for id, s := range db.synsets {
		for _, h := range s.Hypernyms {
			children[h] = append(children[h], id)
		}
	}
	var cum func(id string, seen map[string]bool) float64
	cum = func(id string, seen map[string]bool) float64 {
		if f, ok := db.cumFreq[id]; ok {
			return f
		}
		if seen[id] {
			return 0
		}
		seen[id] = true
		f := db.synsets[id].Freq
		for _, c := range children[id] {
			f += cum(c, seen)
		}
		db.cumFreq[id] = f
		return f
	}
	for id, s := range db.synsets {
		if len(s.Hypernyms) == 0 {
			db.total += cum(id, map[string]bool{})
		}
	}
	for id := range db.synsets {
		cum(id, map[string]bool{})
	}
	if db.total == 0 {
		db.total = 1
	}
	// Ancestor closure, depth and information content per dense index.
	for _, s := range db.list {
		seen := map[int32]bool{}
		var walk func(*Synset)
		walk = func(cur *Synset) {
			if i := db.index[cur.ID]; !seen[i] {
				seen[i] = true
				for _, h := range cur.Hypernyms {
					walk(db.synsets[h])
				}
			}
		}
		walk(s)
		anc := make([]int32, 0, len(seen))
		for i := range seen {
			anc = append(anc, i)
		}
		slices.Sort(anc)
		db.anc = append(db.anc, anc)
		db.depths = append(db.depths, db.depth[s.ID])
		db.ics = append(db.ics, db.ic(s.ID))
	}
	return db
}

// Synsets returns the synsets containing word with the given POS.
func (db *DB) Synsets(word, pos string) []*Synset {
	ids := db.byWord[pos+"\x00"+strings.ToLower(word)]
	out := make([]*Synset, 0, len(ids))
	for _, i := range ids {
		out = append(out, db.list[i])
	}
	return out
}

// Synonyms returns all words sharing a synset with word (excluding the
// word itself), sorted.
func (db *DB) Synonyms(word, pos string) []string {
	seen := map[string]bool{strings.ToLower(word): true}
	var out []string
	for _, s := range db.Synsets(word, pos) {
		for _, w := range s.Words {
			lw := strings.ToLower(w)
			if !seen[lw] {
				seen[lw] = true
				out = append(out, lw)
			}
		}
	}
	sort.Strings(out)
	return out
}

// lcs returns the lowest common subsumer of two synsets (deepest shared
// ancestor; the lowest index among equally deep ones) and whether one
// exists.
func (db *DB) lcs(a, b int32) (int32, bool) {
	best, bestDepth := int32(0), -1
	x, y := db.anc[a], db.anc[b]
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			x = x[1:]
		case x[0] > y[0]:
			y = y[1:]
		default:
			if d := db.depths[x[0]]; d > bestDepth {
				best, bestDepth = x[0], d
			}
			x, y = x[1:], y[1:]
		}
	}
	return best, bestDepth >= 0
}

// similarities computes both metrics between two synsets: Wu & Palmer,
// 2*depth(lcs) / (depth(a) + depth(b)), and Lin, 2*IC(lcs) / (IC(a) +
// IC(b)).
func (db *DB) similarities(a, b int32) (wuPalmer, lin float64) {
	if a == b {
		return 1, 1
	}
	l, ok := db.lcs(a, b)
	if !ok {
		return 0, 0
	}
	wuPalmer = clamp01(2 * float64(db.depths[l]) / (float64(db.depths[a]) + float64(db.depths[b])))
	lin = 1 // both at root: identical generality
	if denom := db.ics[a] + db.ics[b]; denom != 0 {
		lin = clamp01(2 * db.ics[l] / denom)
	}
	return wuPalmer, lin
}

// clamp01 bounds v to [0,1]; depths/ICs can exceed member values only in
// degenerate (cyclic) inputs, which Build tolerates rather than rejects.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ic returns the information content of a synset: -log p(synset).
func (db *DB) ic(id string) float64 {
	f := db.cumFreq[id]
	if f <= 0 {
		f = 1
	}
	p := f / db.total
	if p >= 1 {
		return 0
	}
	return -math.Log(p)
}

// Word is a word looked up once: its synsets for one POS. The §2.2.1
// pair test against many other words then repeats no index lookup.
type Word struct {
	text   string
	senses []int32
}

// Word resolves word for the POS.
func (db *DB) Word(word, pos string) Word {
	return Word{text: word, senses: db.byWord[pos+"\x00"+strings.ToLower(word)]}
}

// Known reports whether the word is in the database for its POS.
func (w Word) Known() bool { return len(w.senses) > 0 }

// best returns the maxima of both metrics over all synset pairs of the
// two words (the standard word-level lifting).
func (db *DB) best(a, b Word) (wuPalmer, lin float64) {
	for _, s1 := range a.senses {
		for _, s2 := range b.senses {
			wp, l := db.similarities(s1, s2)
			wuPalmer, lin = max(wuPalmer, wp), max(lin, l)
		}
	}
	return wuPalmer, lin
}

// AdjectiveAttribute returns the attribute noun for an adjective
// ("tall" → "height"), following the adjective synset's attribute link.
func (db *DB) AdjectiveAttribute(adj string) (string, bool) {
	for _, s := range db.Synsets(adj, Adjective) {
		if s.Attribute == "" {
			continue
		}
		if attr, ok := db.synsets[s.Attribute]; ok && len(attr.Words) > 0 {
			return attr.Words[0], true
		}
	}
	return "", false
}

// derivations maps verb lemmas to their derivationally related nouns
// (WordNet's derivational pointers), used when matching verbs against
// data-property names ("die" → "death" → dbont:deathDate).
var derivations = map[string]string{
	"die":      "death",
	"bear":     "birth",
	"found":    "founding",
	"marry":    "marriage",
	"release":  "release",
	"publish":  "publication",
	"populate": "population",
	"elevate":  "elevation",
	"weigh":    "weight",
	"live":     "life",
	"grow":     "growth",
	"begin":    "beginning",
	"start":    "start",
	"end":      "end",
	"run":      "runtime",
	"employ":   "employee",
	"study":    "study",
}

// NominalizationOf returns the derivationally related noun of a verb
// lemma, if known.
func NominalizationOf(verb string) (string, bool) {
	n, ok := derivations[strings.ToLower(verb)]
	return n, ok
}

// Similar reports whether two words clear the paper's §2.2.1
// thresholds: Lin ≥ 0.75 *or* Wu&Palmer ≥ 0.85 (the paper treats a pair
// as synonymous when the metrics are higher than the assigned
// thresholds).
func (db *DB) Similar(a, b Word) bool {
	if strings.EqualFold(a.text, b.text) {
		return true
	}
	wp, lin := db.best(a, b)
	return lin >= 0.75 || wp >= 0.85
}
