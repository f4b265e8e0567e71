package kb

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The construction path Build and FromTriples replaced, retained as the
// oracle of the batched one: every triple is a write batch of its own
// (one single-triple AddAll each, in the order the helpers assert
// them), and the rdf:type closure is added the same way from a Go map
// walk that asks the store, in term space, for the superclasses of
// every entity-type pair.

// referenceSuperClasses is the term-space walk of the old
// Snapshot.SuperClasses, verbatim: the transitive closure of
// rdfs:subClassOf from class c, c excluded, in Term order.
func referenceSuperClasses(sn *store.Snapshot, c rdf.Term) []rdf.Term {
	seen := map[rdf.Term]bool{c: true}
	var out []rdf.Term
	frontier := []rdf.Term{c}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, cur := range frontier {
			for _, super := range sn.Objects(cur, rdf.SubClassOf()) {
				if !seen[super] {
					seen[super] = true
					out = append(out, super)
					next = append(next, super)
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// referenceMaterializeTypes is the old (*KB).materializeTypes, verbatim.
func referenceMaterializeTypes(kb *KB) {
	entityTypes := map[rdf.Term][]rdf.Term{}
	kb.Store.Snapshot().ForEachMatch(rdf.Triple{P: rdf.Type()}, func(t rdf.Triple) bool {
		if strings.HasPrefix(t.S.Value, rdf.NSRes) && strings.HasPrefix(t.O.Value, rdf.NSOnt) {
			entityTypes[t.S] = append(entityTypes[t.S], t.O)
		}
		return true
	})
	for e, types := range entityTypes {
		for _, c := range types {
			for _, super := range referenceSuperClasses(kb.Store.Snapshot(), c) {
				kb.Store.AddAll([]rdf.Triple{{S: e, P: rdf.Type(), O: super}})
			}
		}
	}
}

// recorder is the reference build's sink: it numbers the terms it is
// given on its own and records each triple the helpers add as terms,
// in the order they add them, so no ID of the store's reaches the
// reference.
type recorder struct {
	ids     map[rdf.Term]store.ID
	terms   []rdf.Term
	triples []rdf.Triple
}

func (r *recorder) Intern(t rdf.Term) store.ID {
	if id, ok := r.ids[t]; ok {
		return id
	}
	r.terms = append(r.terms, t)
	r.ids[t] = store.ID(len(r.terms))
	return store.ID(len(r.terms))
}

func (r *recorder) Add(s, p, o store.ID) {
	r.triples = append(r.triples, rdf.Triple{S: r.terms[s-1], P: r.terms[p-1], O: r.terms[o-1]})
}

// referenceBuild is the old Build: the same helpers in the same order,
// with each triple they assert committed by a single-triple AddAll of its own.
func referenceBuild(cfg Config) *KB {
	rec := &recorder{ids: map[rdf.Term]store.ID{}}
	kb := newBuilder(store.New(), rec)
	kb.build(cfg)
	for _, t := range rec.triples {
		kb.Store.AddAll([]rdf.Triple{t})
	}
	referenceMaterializeTypes(kb.KB)
	return kb.KB
}

// referenceFromTriples is the store the old FromTriples left behind: the
// dump as one batch (it already was), the closure one Add at a time.
func referenceFromTriples(triples []rdf.Triple) *store.Store {
	ref := &KB{Store: store.New()}
	ref.Store.AddAll(triples)
	referenceMaterializeTypes(ref)
	return ref.Store
}

// assertSameStore: same dictionary element for element (so every ID),
// same size, same triples.
func assertSameStore(t *testing.T, gotSt, wantSt *store.Store) {
	t.Helper()
	got, want := gotSt.Snapshot(), wantSt.Snapshot()
	gt, wt := got.TermsView(), want.TermsView()
	if len(gt) != len(wt) {
		t.Fatalf("dictionary: %d terms, reference %d", len(gt), len(wt))
	}
	for i := range wt {
		if gt[i] != wt[i] {
			t.Fatalf("term ID %d: %v, reference %v", i+1, gt[i], wt[i])
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, reference %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.Triples(), want.Triples()) {
		t.Fatal("Triples() differ from the reference")
	}
}

func TestBuildMatchesReference(t *testing.T) {
	cfgs := []Config{DefaultConfig(), {Seed: 42}}
	for _, seed := range []int64{1, 7, 99} {
		cfgs = append(cfgs,
			Config{Seed: seed, SyntheticPersons: 40, SyntheticCities: 8, SyntheticBooks: 25},
			Config{Seed: seed, SyntheticPersons: 400, SyntheticCities: 90, SyntheticBooks: 260})
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("%+v", cfg), func(t *testing.T) {
			got, want := Build(cfg), referenceBuild(cfg)
			assertSameStore(t, got.Store, want.Store)
			if !reflect.DeepEqual(got.Classes, want.Classes) ||
				!reflect.DeepEqual(got.ObjectProperties, want.ObjectProperties) ||
				!reflect.DeepEqual(got.DataProperties, want.DataProperties) {
				t.Error("ontology indexes differ from the reference")
			}
		})
	}
}

func TestFromTriplesMatchesReference(t *testing.T) {
	st := Default().Store.Snapshot()
	full := st.Triples()
	// The same dump with every inferred rdf:type triple stripped: a type
	// of an entity goes when it is a superclass of another of its types.
	supers := map[rdf.Term][]rdf.Term{}
	inferred := func(tr rdf.Triple) bool {
		if tr.P != rdf.Type() || !strings.HasPrefix(tr.S.Value, rdf.NSRes) {
			return false
		}
		for _, c := range st.Objects(tr.S, rdf.Type()) {
			if _, ok := supers[c]; !ok {
				supers[c] = referenceSuperClasses(st, c)
			}
			for _, super := range supers[c] {
				if super == tr.O {
					return true
				}
			}
		}
		return false
	}
	var stripped []rdf.Triple
	for _, tr := range full {
		if !inferred(tr) {
			stripped = append(stripped, tr)
		}
	}
	if len(stripped)+1000 > len(full) {
		t.Fatalf("stripped dump has %d of %d triples: the closure was not removed", len(stripped), len(full))
	}
	for name, dump := range map[string][]rdf.Triple{"closure present": full, "closure stripped": stripped} {
		t.Run(name, func(t *testing.T) {
			got, err := FromTriples(dump)
			if err != nil {
				t.Fatal(err)
			}
			assertSameStore(t, got.Store, referenceFromTriples(dump))
			if n := got.Store.Snapshot().Len(); n != len(full) {
				t.Errorf("Len = %d, want the full closure's %d", n, len(full))
			}
		})
	}
}
