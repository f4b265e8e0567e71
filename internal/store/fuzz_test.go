package store

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// The model FuzzApplyBatch holds the store to: a set of triples over a
// universe small enough that random batches keep hitting the same keys,
// so lists and buckets empty out and fill again.
var (
	fuzzDate       = rdf.NewDate("2001-01-01")
	fuzzSubjects   = []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.Res("C"), fuzzDate}
	fuzzPredicates = []rdf.Term{rdf.Ont("p"), rdf.Ont("q")}
	fuzzObjects    = []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.Res("C"), rdf.NewLiteral("x"), rdf.NewInteger(7), fuzzDate}
	// fuzzUniverse is the eight distinct terms: A, B, C, p, q, "x", 7
	// and the date. Their value kinds are IRI, other, numeric and date;
	// the date is a subject too, as a write may make it.
	fuzzUniverse = append(append(fuzzSubjects[:3:3], fuzzPredicates...), fuzzObjects[3:]...)
)

// fuzzDictionary is what FuzzApplyBatch interns before its first batch:
// 4300 terms, with five of the universe's eight at the IDs fuzzPlaces
// lists and filler everywhere else. "x", 7 and the date are left out,
// so the batch that first inserts one interns it, from 4301 on: they
// share a leaf, as do A and B. q, "x" and 7 lie past ID 4095, under the
// second interior node of a two-level index tree. So batches grow the
// dictionary, create, empty and refill leaves under two interior nodes,
// and the first batch to reach past 4095 grows a tree.
func fuzzDictionary() []rdf.Term {
	fuzzPlaces := []int{1, 2, 700, 2100, 4097}
	terms := make([]rdf.Term, 4300)
	for i := range terms {
		terms[i] = rdf.Res(fmt.Sprintf("filler_%d", i+1))
	}
	for i, id := range fuzzPlaces {
		terms[id-1] = fuzzUniverse[i]
	}
	return terms
}

// fuzzOp encodes one operation as FuzzApplyBatch reads it: bit 7
// deletes, bit 6 ends the batch after this operation, bits 0–1 pick the
// subject, bit 2 the predicate and bits 3–5 the object.
func fuzzOp(del bool, s, p, o int, end bool) byte {
	b := byte(s) | byte(p)<<2 | byte(o)<<3
	if del {
		b |= 1 << 7
	}
	if end {
		b |= 1 << 6
	}
	return b
}

// fuzzBatches decodes the input into batches of at most 16 operations,
// and at most 16 batches. Consecutive operations of one kind share a
// BatchOp.
func fuzzBatches(in []byte) [][]BatchOp {
	var batches [][]BatchOp
	var cur []BatchOp
	n := 0
	for _, b := range in {
		del := b&(1<<7) != 0
		tr := rdf.Triple{
			S: fuzzSubjects[int(b&3)%len(fuzzSubjects)],
			P: fuzzPredicates[int(b>>2)&1],
			O: fuzzObjects[int(b>>3&7)%len(fuzzObjects)],
		}
		if len(cur) == 0 || cur[len(cur)-1].Delete != del {
			cur = append(cur, BatchOp{Delete: del})
		}
		cur[len(cur)-1].Triples = append(cur[len(cur)-1].Triples, tr)
		if n++; b&(1<<6) != 0 || n == 16 {
			batches, cur, n = append(batches, cur), nil, 0
			if len(batches) == 16 {
				return batches
			}
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// pinned is a snapshot, the model's contents when it was published and
// the length of the model's dictionary then.
type pinned struct {
	sn    *Snapshot
	model map[rdf.Triple]bool
	terms int
}

// fuzzDict models the store's dictionary: every term in first-seen
// order, ID i+1 for terms[i].
type fuzzDict struct {
	ids   map[rdf.Term]ID
	terms []rdf.Term
}

func (d *fuzzDict) intern(t rdf.Term) {
	if _, ok := d.ids[t]; !ok {
		d.terms = append(d.terms, t)
		d.ids[t] = ID(len(d.terms))
	}
}

// FuzzApplyBatch applies random batches to a store and to a naive
// triple set and dictionary, and after each batch compares every
// pattern shape over the snapshot — ForEachMatchIDs' rows and their
// order, EstimateCardinalityIDs, PostingList and Len — the dictionary
// — Lookup of each universe term and TermsView — and each predicate's
// PredicateKinds with the model. Every snapshot pinned earlier is read again and must not have
// changed.
func FuzzApplyBatch(f *testing.F) {
	const a, b, c = 0, 1, 2
	f.Add([]byte{
		// Insert then delete the same triple in one batch; delete a
		// triple that was never there.
		fuzzOp(false, a, 0, 3, false), fuzzOp(true, a, 0, 3, false), fuzzOp(true, b, 1, 0, true),
		// Fill A's p list and bucket, then empty both and refill them
		// inside one batch.
		fuzzOp(false, a, 0, 0, false), fuzzOp(false, a, 0, 1, true),
		fuzzOp(true, a, 0, 0, false), fuzzOp(true, a, 0, 1, false), fuzzOp(false, a, 0, 2, true),
		// Empty a bucket in one batch and refill it in the next.
		fuzzOp(true, a, 0, 2, true), fuzzOp(false, a, 1, 4, false), fuzzOp(false, c, 1, 4, true),
	})
	f.Add([]byte{fuzzOp(false, a, 0, 0, false), fuzzOp(false, b, 0, 0, false), fuzzOp(false, c, 1, 0, false),
		fuzzOp(false, c, 0, 4, true), fuzzOp(true, b, 0, 0, false), fuzzOp(false, b, 0, 0, true)})
	// Insert and then delete a triple of the two fresh objects in one
	// batch: both are interned, and no triple is left.
	f.Add([]byte{fuzzOp(false, c, 1, 4, false), fuzzOp(false, c, 1, 3, false),
		fuzzOp(true, c, 1, 4, false), fuzzOp(true, c, 1, 3, true), fuzzOp(false, a, 0, 3, true)})
	// A date object and a date subject come in one batch and go in the
	// next: the counts of both kinds rise and fall.
	f.Add([]byte{fuzzOp(false, a, 0, 5, false), fuzzOp(false, 3, 1, 0, true),
		fuzzOp(true, a, 0, 5, false), fuzzOp(true, 3, 1, 0, true)})
	padded := New()
	padding := &fuzzDict{ids: map[rdf.Term]ID{}}
	for _, term := range fuzzDictionary() {
		padding.intern(term)
	}
	internAll(padded, padding.terms)
	f.Fuzz(func(t *testing.T, in []byte) {
		// A fresh store over the padded dictionary: every batch below
		// only reads the shared snapshot, and the clipped term slice
		// makes an append copy it.
		sn := *padded.Snapshot()
		sn.inverse = slices.Clip(sn.inverse)
		st := &Store{gen: sn.gen}
		st.snap.Store(&sn)
		model := map[rdf.Triple]bool{}
		dict := &fuzzDict{ids: maps.Clone(padding.ids), terms: slices.Clip(padding.terms)}
		var snaps []pinned
		for i, ops := range fuzzBatches(in) {
			genBefore, termsBefore := st.Snapshot().Gen(), len(dict.terms)
			wantAdded, wantRemoved := 0, 0
			for _, op := range ops {
				for _, tr := range op.Triples {
					if !op.Delete {
						dict.intern(tr.S)
						dict.intern(tr.P)
						dict.intern(tr.O)
					}
					if op.Delete && model[tr] {
						delete(model, tr)
						wantRemoved++
					} else if !op.Delete && !model[tr] {
						model[tr] = true
						wantAdded++
					}
				}
			}
			added, removed := st.ApplyBatch(ops)
			if added != wantAdded || removed != wantRemoved {
				t.Fatalf("batch %d: ApplyBatch added %d and removed %d, want %d and %d", i, added, removed, wantAdded, wantRemoved)
			}
			sn := st.Snapshot()
			grew := len(dict.terms) - termsBefore
			if changed := added+removed+grew > 0; changed != (sn.Gen() != genBefore) {
				t.Fatalf("batch %d changed %d triples and added %d terms but moved the generation %d → %d", i, added+removed, grew, genBefore, sn.Gen())
			}
			snaps = append(snaps, pinned{sn, copyModel(model), len(dict.terms)})
			for j, p := range snaps {
				checkDict(t, i, j, p, dict)
				checkModel(t, i, j, p)
			}
		}
	})
}

func copyModel(m map[rdf.Triple]bool) map[rdf.Triple]bool {
	out := make(map[rdf.Triple]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// checkDict compares the pinned snapshot's dictionary with the model's
// when it was pinned: each universe term is absent before the model
// interns it and has its model ID after, and TermsView is the model's
// terms.
func checkDict(t *testing.T, batch, snap int, p pinned, dict *fuzzDict) {
	for _, term := range fuzzUniverse {
		want, ok := dict.ids[term]
		ok = ok && int(want) <= p.terms
		if !ok {
			want = 0
		}
		if id, found := p.sn.Lookup(term); id != want || found != ok {
			t.Fatalf("batch %d, snapshot %d: Lookup(%v) = %d, %v; the model says %d, %v", batch, snap, term, id, found, want, ok)
		}
	}
	if !slices.Equal(p.sn.TermsView(), dict.terms[:p.terms]) {
		t.Fatalf("batch %d, snapshot %d: TermsView differs from the model's %d terms", batch, snap, p.terms)
	}
}

// checkModel compares every pattern over the universe's IDs and one
// filler ID — each position a wildcard or any of them, so all 8 shapes
// — with the model.
func checkModel(t *testing.T, batch, snap int, p pinned) {
	sn := p.sn
	if sn.Len() != len(p.model) {
		t.Fatalf("batch %d, snapshot %d: Len = %d, model holds %d", batch, snap, sn.Len(), len(p.model))
	}
	var all [][3]ID
	for tr := range p.model {
		s, _ := sn.Lookup(tr.S)
		pr, _ := sn.Lookup(tr.P)
		o, _ := sn.Lookup(tr.O)
		all = append(all, [3]ID{s, pr, o})
	}
	ids := []ID{0, 3} // the wildcard, and filler in A and B's leaf
	for _, term := range fuzzUniverse {
		if id, ok := sn.Lookup(term); ok {
			ids = append(ids, id)
		}
	}
	for _, pr := range ids[1:] {
		var want PredicateKinds
		for tr := range p.model {
			if id, _ := sn.Lookup(tr.P); id == pr {
				want.Subjects[tr.S.ValueKind()]++
				want.Objects[tr.O.ValueKind()]++
			}
		}
		if got := sn.PredicateKinds(pr); got != want {
			t.Fatalf("batch %d, snapshot %d: PredicateKinds(%d) = %+v, model counts %+v", batch, snap, pr, got, want)
		}
	}
	for _, s := range ids {
		for _, pr := range ids {
			for _, o := range ids {
				pat := [3]ID{s, pr, o}
				want := modelMatches(all, pat)
				var got [][3]ID
				sn.ForEachMatchIDs(pat, func(s, p, o ID) bool {
					got = append(got, [3]ID{s, p, o})
					return true
				})
				if !slices.Equal(got, want) {
					t.Fatalf("batch %d, snapshot %d: ForEachMatchIDs(%v) = %v, want %v", batch, snap, pat, got, want)
				}
				if est := sn.EstimateCardinalityIDs(pat); est != len(want) {
					t.Fatalf("batch %d, snapshot %d: EstimateCardinalityIDs(%v) = %d, want %d", batch, snap, pat, est, len(want))
				}
				checkPostingList(t, sn, pat, want)
			}
		}
	}
}

// modelMatches returns the model's triples matching pat in the order
// the store yields them: sorted along the permutation the shape scans
// (SPO, POS or OSP).
func modelMatches(all [][3]ID, pat [3]ID) [][3]ID {
	var out [][3]ID
	for _, tr := range all {
		if (pat[0] == 0 || pat[0] == tr[0]) && (pat[1] == 0 || pat[1] == tr[1]) && (pat[2] == 0 || pat[2] == tr[2]) {
			out = append(out, tr)
		}
	}
	perm := [3]int{0, 1, 2} // SPO: S bound (without P and O both), or nothing bound
	switch s, p, o := pat[0] != 0, pat[1] != 0, pat[2] != 0; {
	case p && o && !s, p && !s && !o:
		perm = [3]int{1, 2, 0} // POS
	case o && !p:
		perm = [3]int{2, 0, 1} // OSP
	}
	slices.SortFunc(out, func(x, y [3]ID) int {
		for _, i := range perm {
			if c := cmp.Compare(x[i], y[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

// checkPostingList: a pattern with exactly one wildcard has the
// wildcard position of its matches as its posting list; any other
// pattern has none.
func checkPostingList(t *testing.T, sn *Snapshot, pat [3]ID, want [][3]ID) {
	wild := -1
	for i, id := range pat {
		if id == 0 {
			if wild >= 0 {
				wild = 3 // two or more wildcards
				break
			}
			wild = i
		}
	}
	ids, ok := sn.PostingList(pat)
	if wild < 0 || wild == 3 {
		if ok {
			t.Fatalf("PostingList(%v) answered a pattern without exactly one wildcard", pat)
		}
		return
	}
	var wantIDs []ID
	for _, tr := range want {
		wantIDs = append(wantIDs, tr[wild])
	}
	if !ok || !slices.Equal(ids, wantIDs) {
		t.Fatalf("PostingList(%v) = %v, %v; want %v", pat, ids, ok, wantIDs)
	}
}
