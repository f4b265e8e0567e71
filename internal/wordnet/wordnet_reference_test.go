package wordnet

import (
	"math"
	"sort"
	"testing"
)

// The per-call taxonomy walk Lin and Wu & Palmer did before Build
// closed the taxonomy: an ancestor map per synset per call, the deepest
// common one found by ranging over it. Kept as the oracle of the dense
// ancestor lists.

func (db *DB) refAncestors(id string) map[string]bool {
	out := map[string]bool{}
	var walk func(string)
	walk = func(cur string) {
		if out[cur] {
			return
		}
		out[cur] = true
		for _, h := range db.synsets[cur].Hypernyms {
			walk(h)
		}
	}
	walk(id)
	return out
}

func (db *DB) refLCS(a, b string) (string, bool) {
	ancA := db.refAncestors(a)
	best, bestDepth := "", -1
	for anc := range db.refAncestors(b) {
		if !ancA[anc] {
			continue
		}
		if d := db.depth[anc]; d > bestDepth {
			best, bestDepth = anc, d
		}
	}
	return best, bestDepth >= 0
}

func (db *DB) refWuPalmerSynsets(a, b string) float64 {
	if a == b {
		return 1
	}
	l, ok := db.refLCS(a, b)
	if !ok {
		return 0
	}
	return clamp01(2 * float64(db.depth[l]) / (float64(db.depth[a]) + float64(db.depth[b])))
}

func (db *DB) refLinSynsets(a, b string) float64 {
	if a == b {
		return 1
	}
	l, ok := db.refLCS(a, b)
	if !ok {
		return 0
	}
	denom := db.ic(a) + db.ic(b)
	if denom == 0 {
		return 1
	}
	return clamp01(2 * db.ic(l) / denom)
}

func (db *DB) refWord(metric func(a, b string) float64, w1, w2, pos string) float64 {
	best := 0.0
	for _, s1 := range db.Synsets(w1, pos) {
		for _, s2 := range db.Synsets(w2, pos) {
			if v := metric(s1.ID, s2.ID); v > best {
				best = v
			}
		}
	}
	return best
}

// TestSimilaritiesMatchReference compares every pair of words of the
// embedded database, per POS: both metrics bit for bit, and the §2.2.1
// threshold test built on them.
func TestSimilaritiesMatchReference(t *testing.T) {
	db := Default()
	words := map[string][]string{}
	for _, s := range db.list {
		words[s.POS] = append(words[s.POS], s.Words...)
	}
	for pos, ws := range words {
		sort.Strings(ws)
		ws = append(ws, "no such word")
		for _, a := range ws {
			for _, b := range ws {
				lin, wp := db.refWord(db.refLinSynsets, a, b, pos), db.refWord(db.refWuPalmerSynsets, a, b, pos)
				if got := db.Lin(a, b, pos); math.Float64bits(got) != math.Float64bits(lin) {
					t.Errorf("Lin(%q, %q, %s) = %v, reference %v", a, b, pos, got, lin)
				}
				if got := db.WuPalmer(a, b, pos); math.Float64bits(got) != math.Float64bits(wp) {
					t.Errorf("WuPalmer(%q, %q, %s) = %v, reference %v", a, b, pos, got, wp)
				}
				if got, want := db.SimilarPair(a, b, pos), a == b || lin >= 0.75 || wp >= 0.85; got != want {
					t.Errorf("SimilarPair(%q, %q, %s) = %v, reference %v", a, b, pos, got, want)
				}
			}
		}
	}
}
