package sparql

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// This file cross-checks the selectivity-ordered executor against a
// naive reference evaluator (exhaustive backtracking over the full
// triple list, no indexes, no join reordering). Any disagreement on
// randomly generated graphs and BGPs is a bug in the optimiser.

// referenceBGP computes all solutions of a BGP by brute force.
func referenceBGP(triples []rdf.Triple, patterns []rdf.Triple) []Binding {
	var out []Binding
	var rec func(i int, b Binding)
	rec = func(i int, b Binding) {
		if i == len(patterns) {
			out = append(out, maps.Clone(b))
			return
		}
		pat := patterns[i]
		for _, t := range triples {
			nb, ok := matchRef(b, pat, t)
			if ok {
				rec(i+1, nb)
			}
		}
	}
	rec(0, Binding{})
	return out
}

func matchRef(b Binding, pat, t rdf.Triple) (Binding, bool) {
	nb := maps.Clone(b)
	bind := func(p, v rdf.Term) bool {
		if !p.IsVar() {
			return p == v
		}
		if prev, ok := nb[p.Value]; ok {
			return prev == v
		}
		nb[p.Value] = v
		return true
	}
	if !bind(pat.S, t.S) || !bind(pat.P, t.P) || !bind(pat.O, t.O) {
		return nil, false
	}
	return nb, true
}

// canonical renders a solution multiset for comparison.
func canonical(solutions []Binding, vars []string) []string {
	out := make([]string, 0, len(solutions))
	for _, s := range solutions {
		key := ""
		for _, v := range vars {
			if t, ok := s[v]; ok {
				key += t.String()
			}
			key += "|"
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

func TestExecutorMatchesReferenceEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	subjects := []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.Res("C"), rdf.Res("D")}
	preds := []rdf.Term{rdf.Ont("p"), rdf.Ont("q"), rdf.Ont("r")}
	objects := []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.NewInteger(1), rdf.NewInteger(2)}

	for trial := 0; trial < 60; trial++ {
		// Random small graph.
		st := store.New()
		var triples []rdf.Triple
		n := 3 + rng.Intn(18)
		seen := map[rdf.Triple]bool{}
		for i := 0; i < n; i++ {
			tr := rdf.Triple{
				S: subjects[rng.Intn(len(subjects))],
				P: preds[rng.Intn(len(preds))],
				O: objects[rng.Intn(len(objects))],
			}
			if !seen[tr] {
				seen[tr] = true
				triples = append(triples, tr)
				st.AddAll([]rdf.Triple{tr})
			}
		}
		// Random BGP of 1-3 patterns over variables x, y, z.
		vars := []rdf.Term{rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")}
		pick := func(pool []rdf.Term) rdf.Term {
			if rng.Float64() < 0.5 {
				return vars[rng.Intn(len(vars))]
			}
			return pool[rng.Intn(len(pool))]
		}
		np := 1 + rng.Intn(3)
		patterns := make([]rdf.Triple, np)
		for i := range patterns {
			patterns[i] = rdf.Triple{S: pick(subjects), P: pick(preds), O: pick(objects)}
		}

		q := &Query{Form: FormSelect, Star: true, Patterns: patterns, Limit: -1}
		got, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := referenceBGP(triples, patterns)

		projVars := q.Vars()
		gotC := canonical(got.Solutions(), projVars)
		wantC := canonical(projectRef(want, projVars), projVars)
		if len(gotC) != len(wantC) {
			t.Fatalf("trial %d: %d solutions, reference %d\npatterns: %v\ngot: %v\nwant: %v",
				trial, len(gotC), len(wantC), patterns, gotC, wantC)
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("trial %d: solution mismatch at %d:\n%v\nvs\n%v\npatterns: %v",
					trial, i, gotC[i], wantC[i], patterns)
			}
		}
	}
}

func projectRef(solutions []Binding, vars []string) []Binding {
	out := make([]Binding, len(solutions))
	for i, s := range solutions {
		row := Binding{}
		for _, v := range vars {
			if t, ok := s[v]; ok {
				row[v] = t
			}
		}
		out[i] = row
	}
	return out
}

func TestExecutorMatchesReferenceWithFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	st := store.New()
	var triples []rdf.Triple
	for i := 0; i < 30; i++ {
		tr := rdf.Triple{
			S: rdf.Res(fmt.Sprintf("E%d", rng.Intn(6))),
			P: rdf.Ont("value"),
			O: rdf.NewInteger(int64(rng.Intn(10))),
		}
		if st.AddAll([]rdf.Triple{tr}) == 1 {
			triples = append(triples, tr)
		}
	}
	for threshold := 0; threshold < 10; threshold += 3 {
		q := mustParse(fmt.Sprintf(
			`SELECT ?s ?v WHERE { ?s dbont:value ?v . FILTER(?v >= %d) }`, threshold))
		got, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: brute force + manual filter.
		var want []Binding
		for _, b := range referenceBGP(triples, q.Patterns) {
			if f, ok := b["v"].Float(); ok && f >= float64(threshold) {
				want = append(want, b)
			}
		}
		gotC := canonical(got.Solutions(), []string{"s", "v"})
		wantC := canonical(want, []string{"s", "v"})
		if len(gotC) != len(wantC) {
			t.Fatalf("threshold %d: %d vs reference %d", threshold, len(gotC), len(wantC))
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("threshold %d: mismatch %q vs %q", threshold, gotC[i], wantC[i])
			}
		}
	}
}
