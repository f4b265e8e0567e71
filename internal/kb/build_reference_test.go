package kb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The construction path Build and FromTriples replaced, retained as the
// oracle of the batched one: every triple is a write batch of its own
// (one Store.Add each, in the order the helpers assert them), and the
// rdf:type closure is added the same way from a Go map walk that asks
// the store for the superclasses of every entity-type pair.

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
			for _, super := range kb.Store.Snapshot().SuperClasses(c) {
				kb.Store.Add(rdf.Triple{S: e, P: rdf.Type(), O: super})
			}
		}
	}
}

// referenceBuild is the old Build: the same helpers in the same order,
// with each triple they assert committed by a Store.Add of its own.
func referenceBuild(cfg Config) *KB {
	kb := &builder{KB: &KB{
		Store:        store.New(),
		classByLocal: map[string]Class{},
		propByLocal:  map[string]Property{},
	}}
	kb.buildOntology()
	kb.buildCuratedEntities()
	kb.buildSynthetic(cfg)
	for _, t := range kb.queue {
		kb.Store.Add(t)
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
				supers[c] = st.SuperClasses(c)
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
