package sparql

import (
	"context"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// costStore builds a graph with known exact pattern cardinalities: 5
// Persons, 3 Cities, 4 p0 edges.
func costStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	var batch []rdf.Triple
	for i := 0; i < 5; i++ {
		batch = append(batch, rdf.Triple{S: rdf.Res(ent("P", i)), P: rdf.Type(), O: rdf.Ont("Person")})
	}
	for i := 0; i < 3; i++ {
		batch = append(batch, rdf.Triple{S: rdf.Res(ent("C", i)), P: rdf.Type(), O: rdf.Ont("City")})
	}
	for i := 0; i < 4; i++ {
		batch = append(batch, rdf.Triple{S: rdf.Res(ent("P", i)), P: rdf.Ont("p0"), O: rdf.Res(ent("C", i%3))})
	}
	st.AddAll(batch)
	return st
}

func ent(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestEstimateRowsSumsExactCardinalities(t *testing.T) {
	sess := NewSnapshotSession(costStore(t).Snapshot())
	ctx := context.Background()
	x, y := rdf.NewVar("x"), rdf.NewVar("y")

	q := &Query{Form: FormSelect, Projection: []string{"x"}, Limit: -1,
		Patterns: []rdf.Triple{
			{S: x, P: rdf.Type(), O: rdf.Ont("Person")}, // 5
			{S: x, P: rdf.Ont("p0"), O: y},              // 4
		}}
	if got := sess.EstimateRows(ctx, q); got != 9 {
		t.Fatalf("EstimateRows = %d, want 9 (5 Persons + 4 p0 edges)", got)
	}

	// UNION branches and OPTIONAL blocks contribute too.
	q = &Query{Form: FormSelect, Projection: []string{"x"}, Limit: -1,
		Patterns: []rdf.Triple{{S: x, P: rdf.Type(), O: rdf.Ont("Person")}}, // 5
		Unions: [][][]rdf.Triple{{
			{{S: x, P: rdf.Type(), O: rdf.Ont("City")}}, // 3
			{{S: x, P: rdf.Ont("p0"), O: y}},            // 4
		}},
		Optionals: [][]rdf.Triple{{{S: x, P: rdf.Ont("p0"), O: y}}}, // 4
	}
	if got := sess.EstimateRows(ctx, q); got != 16 {
		t.Fatalf("EstimateRows = %d, want 16", got)
	}
}

func TestEstimateRowsUnknownConstantsAndNil(t *testing.T) {
	sess := NewSnapshotSession(costStore(t).Snapshot())
	ctx := context.Background()
	x := rdf.NewVar("x")
	q := &Query{Form: FormSelect, Projection: []string{"x"}, Limit: -1,
		Patterns: []rdf.Triple{{S: x, P: rdf.Type(), O: rdf.Ont("Nonexistent")}}}
	if got := sess.EstimateRows(ctx, q); got != 0 {
		t.Fatalf("unknown-constant pattern estimated %d rows, want 0", got)
	}
	if got := sess.EstimateRows(ctx, nil); got != 0 {
		t.Fatalf("nil query estimated %d rows", got)
	}
}
