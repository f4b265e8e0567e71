package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The session differential: executing a workload of sibling queries
// through one shared Session must produce results byte-identical to
// fresh single-query execution — same rows, same order, same terms —
// over randomized graphs, randomized candidate-style query batches and
// concurrent execution. Run under -race this also exercises the
// session's locking from several goroutines at once.

// randStore builds a random graph shaped like the §2.3 workload: a
// type layer plus several property layers over a shared entity space,
// so sibling queries read the same posting lists.
func randStore(rng *rand.Rand, nEnt, nProps int) (*store.Store, []rdf.Term) {
	st := store.New()
	var batch []rdf.Triple
	classes := []rdf.Term{rdf.Ont("Person"), rdf.Ont("City"), rdf.Ont("Book")}
	props := make([]rdf.Term, nProps)
	for i := range props {
		props[i] = rdf.Ont(fmt.Sprintf("p%d", i))
	}
	for e := 0; e < nEnt; e++ {
		ent := rdf.Res(fmt.Sprintf("E%d", e))
		batch = append(batch, rdf.Triple{S: ent, P: rdf.Type(), O: classes[e%len(classes)]})
		for _, p := range props {
			if rng.Intn(3) == 0 {
				continue
			}
			var obj rdf.Term
			switch rng.Intn(3) {
			case 0:
				obj = rdf.Res(fmt.Sprintf("E%d", rng.Intn(nEnt)))
			case 1:
				obj = rdf.NewInteger(int64(rng.Intn(40)))
			default:
				obj = rdf.NewDate(fmt.Sprintf("19%02d-01-%02d", rng.Intn(100), 1+rng.Intn(28)))
			}
			batch = append(batch, rdf.Triple{S: ent, P: p, O: obj})
		}
	}
	st.AddAll(batch)
	return st, props
}

// siblingQueries builds a candidate-fan-out-style workload: queries
// that differ only in property or orientation plus a few shapes with
// FILTER/ORDER BY/COUNT/ASK to cover every executor path through the
// session.
func siblingQueries(rng *rand.Rand, props []rdf.Term) []*Query {
	var qs []*Query
	x, p := rdf.NewVar("x"), rdf.NewVar("p")
	class := []rdf.Term{rdf.Ont("Person"), rdf.Ont("City"), rdf.Ont("Book")}[rng.Intn(3)]
	for _, prop := range props {
		qs = append(qs,
			&Query{Form: FormSelect, Distinct: true, Projection: []string{"x"}, Limit: -1,
				Patterns: []rdf.Triple{
					{S: p, P: rdf.Type(), O: class},
					{S: p, P: prop, O: x},
				}},
			&Query{Form: FormSelect, Distinct: true, Projection: []string{"x"}, Limit: -1,
				Patterns: []rdf.Triple{
					{S: p, P: rdf.Type(), O: class},
					{S: x, P: prop, O: p},
				}},
			&Query{Form: FormAsk, Limit: -1,
				Patterns: []rdf.Triple{{S: rdf.Res("E1"), P: prop, O: x}}},
			&Query{Form: FormSelect, Count: &CountSpec{Var: "x", Distinct: true, As: "x"},
				Limit: -1,
				Patterns: []rdf.Triple{
					{S: p, P: rdf.Type(), O: class},
					{S: p, P: prop, O: x},
				}},
		)
	}
	// Non-fan-out shapes over the same patterns.
	qs = append(qs,
		&Query{Form: FormSelect, Star: true, Limit: -1,
			Patterns: []rdf.Triple{{S: p, P: props[0], O: x}},
			Filters:  []*Comparison{{Op: ">", Left: &VarExpr{Name: "x"}, Right: &TermExpr{Term: rdf.NewInteger(20)}}},
		},
		&Query{Form: FormSelect, Count: &CountSpec{Var: "p", Distinct: true, As: "n"}, Limit: 7,
			Patterns: []rdf.Triple{{S: p, P: props[len(props)-1], O: x}},
			Filters:  []*Comparison{{Op: "<=", Left: &VarExpr{Name: "x"}, Right: &TermExpr{Term: rdf.NewInteger(10)}}},
		},
		&Query{Form: FormSelect, Projection: []string{"p", "x"}, Limit: -1,
			Patterns: []rdf.Triple{{S: p, P: props[0], O: x}},
			OrderBy:  []OrderKey{{Expr: &VarExpr{Name: "x"}, Desc: true}},
		},
	)
	return qs
}

// resultKey renders a Result fully — vars, row count, every term in
// order — so equality means byte-identical observable output.
func resultKey(r *Result) string {
	if r.Form == FormAsk {
		return fmt.Sprintf("ASK %v", r.Boolean)
	}
	key := fmt.Sprintf("%v/%d:", r.Vars, r.Len())
	for row := 0; row < r.Len(); row++ {
		for col := range r.Vars {
			t, ok := r.TermAt(row, col)
			if ok {
				key += t.String()
			}
			key += "|"
		}
		key += ";"
	}
	return key
}

func TestSessionMatchesFreshExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		st, props := randStore(rng, 30+rng.Intn(120), 2+rng.Intn(5))
		qs := siblingQueries(rng, props)
		sess := NewSnapshotSession(st.Snapshot())
		for qi, q := range qs {
			fresh, errF := ExecuteCtx(context.Background(), st.Snapshot(), q)
			shared, errS := sess.ExecuteCtx(context.Background(), q)
			if (errF == nil) != (errS == nil) {
				t.Fatalf("trial %d query %d: err mismatch %v vs %v", trial, qi, errF, errS)
			}
			if errF != nil {
				continue
			}
			if got, want := resultKey(shared), resultKey(fresh); got != want {
				t.Fatalf("trial %d query %d diverged:\nsession: %s\nfresh:   %s\nquery: %s",
					trial, qi, got, want, q.String())
			}
		}
	}
}

// TestSessionConcurrentExecution drives one session from many
// goroutines at once and checks every result against fresh execution.
// Under -race this pins the session's locking.
func TestSessionConcurrentExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st, props := randStore(rng, 150, 4)
	qs := siblingQueries(rng, props)
	want := make([]string, len(qs))
	for i, q := range qs {
		r, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(r)
	}
	for round := 0; round < 3; round++ {
		sess := NewSnapshotSession(st.Snapshot())
		var wg sync.WaitGroup
		errCh := make(chan error, len(qs))
		for i, q := range qs {
			wg.Add(1)
			go func(i int, q *Query) {
				defer wg.Done()
				r, err := sess.ExecuteCtx(context.Background(), q)
				if err != nil {
					errCh <- err
					return
				}
				if got := resultKey(r); got != want[i] {
					errCh <- fmt.Errorf("query %d diverged under concurrency:\n%s\nvs\n%s", i, got, want[i])
				}
			}(i, q)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}
}

// TestSessionPinsSnapshot: queries through a session keep reading the
// snapshot pinned at session creation even after the store changes,
// and a fresh session sees the new state.
func TestSessionPinsSnapshot(t *testing.T) {
	st := store.New()
	st.AddAll([]rdf.Triple{{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.NewInteger(1)}})
	sess := NewSnapshotSession(st.Snapshot())
	q := mustParse(`SELECT ?x WHERE { res:A dbont:p ?x . }`)
	r1, err := sess.ExecuteCtx(context.Background(), q)
	if err != nil || r1.Len() != 1 {
		t.Fatalf("r1=%v err=%v", r1, err)
	}
	st.AddAll([]rdf.Triple{{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.NewInteger(2)}})
	r2, err := sess.ExecuteCtx(context.Background(), q)
	if err != nil || r2.Len() != 1 {
		t.Fatalf("pinned session saw the write: len=%d err=%v", r2.Len(), err)
	}
	r3, err := NewSnapshotSession(st.Snapshot()).ExecuteCtx(context.Background(), q)
	if err != nil || r3.Len() != 2 {
		t.Fatalf("fresh session missed the write: len=%d err=%v", r3.Len(), err)
	}
}

// countingView counts the triple-data reads a session makes of its
// view.
type countingView struct {
	*store.Snapshot
	posting int
}

func (v *countingView) PostingList(pat [3]store.ID) ([]store.ID, bool) {
	v.posting++
	return v.Snapshot.PostingList(pat)
}

// TestInstanceOfConcurrent: goroutines probing one session's type sets
// at once — the in-place entries and the overflow map both fill under
// them — agree with the ground probe. Under -race this pins the
// type-set locking.
func TestInstanceOfConcurrent(t *testing.T) {
	st, _ := randStore(rand.New(rand.NewSource(9)), 60, 3)
	snap := st.Snapshot()
	sess := NewSnapshotSession(snap)
	classes := []rdf.Term{rdf.Ont("Person"), rdf.Ont("City"), rdf.Ont("Book")}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < 60; e++ {
				ent := rdf.Res(fmt.Sprintf("E%d", (e*7+g*13)%60))
				for _, class := range classes {
					want := len(snap.Match(rdf.Triple{S: ent, P: rdf.Type(), O: class})) > 0
					if got := sess.InstanceOf(ent, class); got != want {
						t.Errorf("InstanceOf(%v, %v) = %v, ground probe says %v", ent, class, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestInstanceOfMatchesGroundProbe: the type-set read answers every
// (entity, class) pair exactly as the ground rdf:type probe does —
// known and unknown entities, classes and literals — pins the
// snapshot like every session read, and reads the view once per
// distinct entity however many classes are asked.
func TestInstanceOfMatchesGroundProbe(t *testing.T) {
	st, _ := randStore(rand.New(rand.NewSource(9)), 60, 3)
	st.AddAll([]rdf.Triple{{S: rdf.Res("E0"), P: rdf.Type(), O: rdf.Ont("Author")}}) // a second type
	snap := st.Snapshot()
	view := &countingView{Snapshot: snap}
	sess := NewViewSession(view)
	st.AddAll([]rdf.Triple{{S: rdf.Res("E1"), P: rdf.Type(), O: rdf.Ont("Author")}}) // after the pin

	classes := []rdf.Term{rdf.Ont("Person"), rdf.Ont("City"), rdf.Ont("Book"), rdf.Ont("Author"), rdf.Ont("Nowhere")}
	var entities []rdf.Term
	for e := 0; e < 60; e++ {
		entities = append(entities, rdf.Res(fmt.Sprintf("E%d", e)))
	}
	entities = append(entities, rdf.Res("Unknown"), rdf.NewInteger(3))
	for round := 0; round < 2; round++ {
		for _, ent := range entities {
			for _, class := range classes {
				want := len(snap.Match(rdf.Triple{S: ent, P: rdf.Type(), O: class})) > 0
				if got := sess.InstanceOf(ent, class); got != want {
					t.Fatalf("InstanceOf(%v, %v) = %v, ground probe says %v", ent, class, got, want)
				}
			}
		}
	}
	if !sess.InstanceOf(rdf.Res("E0"), rdf.Ont("Author")) || sess.InstanceOf(rdf.Res("E1"), rdf.Ont("Author")) {
		t.Fatal("type set is not the pinned snapshot's")
	}
	// 60 entities in the dictionary (the integer 3 is too, as an
	// object): one read each, none repeated.
	if view.posting > 61 {
		t.Fatalf("%d posting-list reads for 61 known subjects", view.posting)
	}
}
