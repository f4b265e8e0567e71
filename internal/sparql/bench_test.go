package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/store"
)

// The ID-space engine against the retained term-space reference
// evaluator (termspace_reference_test.go), query for query. The ID side
// runs on a fresh session with no plan cache, so like the
// reference it compiles the whole query on every iteration.
// scripts/bench.sh selects these by name.

const (
	benchJoin3 = `SELECT ?p ?c ?n WHERE {
		?p rdf:type dbont:Person .
		?p dbont:birthPlace ?c .
		?c dbont:populationTotal ?n . }`
	benchJoin3Limit = `SELECT ?p ?c ?n WHERE {
		?p rdf:type dbont:Person .
		?p dbont:birthPlace ?c .
		?c dbont:populationTotal ?n . } LIMIT 10`
	benchDistinctOrder = `SELECT DISTINCT ?c WHERE {
		?p dbont:birthPlace ?c .
		?c dbont:populationTotal ?n . } ORDER BY DESC(?n)`
)

func executeUncached(st *store.Store, q *Query) (*Result, error) {
	return NewSnapshotSession(st.Snapshot()).ExecuteCtx(context.Background(), q)
}

func benchmarkQuery(b *testing.B, src string, exec func(*store.Store, *Query) (*Result, error)) {
	k := kb.Default()
	q := mustParse(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec(k.Store, q)
		if err != nil || res.Len() == 0 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkBGPJoin3 runs a 3-pattern basic graph pattern join
// (person -> birthplace -> population) through the ID-space executor.
func BenchmarkBGPJoin3(b *testing.B) { benchmarkQuery(b, benchJoin3, executeUncached) }

// BenchmarkBGPJoin3TermSpace is the identical join on the term-space
// reference evaluator.
func BenchmarkBGPJoin3TermSpace(b *testing.B) { benchmarkQuery(b, benchJoin3, ExecuteTermSpace) }

// BenchmarkBGPJoin3Limit shows late materialization: only the 10 rows
// surviving LIMIT are converted back to terms.
func BenchmarkBGPJoin3Limit(b *testing.B) { benchmarkQuery(b, benchJoin3Limit, executeUncached) }

// BenchmarkBGPJoin3LimitTermSpace materialises every intermediate
// binding before applying LIMIT.
func BenchmarkBGPJoin3LimitTermSpace(b *testing.B) {
	benchmarkQuery(b, benchJoin3Limit, ExecuteTermSpace)
}

// BenchmarkBGPJoinDistinctOrderBy adds DISTINCT and ORDER BY on top of
// a two-pattern join, exercising projection, dedup and sorting.
func BenchmarkBGPJoinDistinctOrderBy(b *testing.B) {
	benchmarkQuery(b, benchDistinctOrder, executeUncached)
}

// BenchmarkBGPJoinDistinctOrderByTermSpace is the term-space twin.
func BenchmarkBGPJoinDistinctOrderByTermSpace(b *testing.B) {
	benchmarkQuery(b, benchDistinctOrder, ExecuteTermSpace)
}

// benchmarkPlanCompile isolates the compile path (shape + bind, no
// execution) of the 3-pattern join, with the shape cache warm or
// detached: the gap is the per-candidate value of the cache across the
// §2.3 fan-out.
func benchmarkPlanCompile(b *testing.B, pc *PlanCache) {
	k := kb.Default()
	q := mustParse(benchJoin3)
	sess := NewSnapshotSession(k.Store.Snapshot()).WithPlanCache(pc)
	ctx := context.Background()
	if len(compile(ctx, sess, q).patterns) != 3 { // warm the cache (when attached)
		b.Fatal("compiled plan lost a pattern")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(compile(ctx, sess, q).patterns) != 3 {
			b.Fatal("compiled plan lost a pattern")
		}
	}
}

// BenchmarkPlanCacheHit compiles against a warm shape cache: a key
// build, a sharded Get and the bind phase per iteration.
func BenchmarkPlanCacheHit(b *testing.B) {
	pc := NewPlanCache(64)
	benchmarkPlanCompile(b, pc)
	if hits, _, _ := pc.Stats(); hits == 0 {
		b.Fatal("cache never hit")
	}
}

// BenchmarkPlanCacheMiss is the cache-detached twin: every compile
// builds the full shape from scratch.
func BenchmarkPlanCacheMiss(b *testing.B) {
	benchmarkPlanCompile(b, nil)
}

// BenchmarkParseUpdate parses one update_mix write: a flip of 8 triples
// from one literal state to the other, DELETE DATA ; INSERT DATA, in
// the body format cmd/qaload sends to /v1/update.
func BenchmarkParseUpdate(b *testing.B) {
	block := func(state string) string {
		var sb strings.Builder
		for t := 0; t < 8; t++ {
			fmt.Fprintf(&sb, "<%sBench_3_%d> <%sbenchState> \"%s-3-%d\" . ", rdf.NSRes, t, rdf.NSOnt, state, t)
		}
		return sb.String()
	}
	body := "DELETE DATA { " + block("a") + "} ; INSERT DATA { " + block("b") + "}"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ops, err := ParseUpdate(body)
		if err != nil || len(ops) != 2 || len(ops[1].Triples) != 8 {
			b.Fatalf("ParseUpdate = %v, %v", ops, err)
		}
	}
}
