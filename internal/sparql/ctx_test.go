package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func ctxTestStore() *store.Store {
	st := store.New()
	for i := 0; i < 50; i++ {
		p := rdf.Res(fmt.Sprintf("P%d", i))
		c := rdf.Res(fmt.Sprintf("C%d", i%10))
		st.Add(rdf.Triple{S: p, P: rdf.Type(), O: rdf.Ont("Person")})
		st.Add(rdf.Triple{S: p, P: rdf.Ont("birthPlace"), O: c})
		st.Add(rdf.Triple{S: c, P: rdf.Ont("populationTotal"), O: rdf.NewInteger(int64(1000 * i))})
	}
	return st
}

// TestExecuteCtxCancelled: a cancelled context aborts execution with
// ctx.Err() instead of returning a partial result.
func TestExecuteCtxCancelled(t *testing.T) {
	st := ctxTestStore()
	q := MustParse(`SELECT ?p ?c ?n WHERE {
		?p rdf:type dbont:Person .
		?p dbont:birthPlace ?c .
		?c dbont:populationTotal ?n . }`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExecuteCtx(ctx, st.Snapshot(), q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled execution returned a result: %v", res)
	}
}

// TestExecuteCtxBackground: ExecuteCtx with a live context matches
// Execute exactly.
func TestExecuteCtxBackground(t *testing.T) {
	st := ctxTestStore()
	q := MustParse(`SELECT DISTINCT ?c WHERE {
		?p dbont:birthPlace ?c .
		?c dbont:populationTotal ?n . } ORDER BY DESC(?n)`)
	want, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", want.Solutions()) != fmt.Sprintf("%v", got.Solutions()) {
		t.Fatalf("ExecuteCtx diverged from Execute:\n%v\n%v", want.Solutions(), got.Solutions())
	}
}

// TestExecuteCtxNil: a nil context behaves as context.Background.
func TestExecuteCtxNil(t *testing.T) {
	st := ctxTestStore()
	q := MustParse(`ASK { ?p rdf:type dbont:Person . }`)
	res, err := ExecuteCtx(nil, st.Snapshot(), q)
	if err != nil || !res.Boolean {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
