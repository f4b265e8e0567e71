package answer

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kb"
	"repro/internal/propmap"
	"repro/internal/sparql"
	"repro/internal/triplex"
)

// The "cached ≡ fresh" oracle at the §2.3 level: extraction through a
// session on a plan cache (shared shapes) must
// produce a Result byte-identical to extraction through a session with
// no cache — same winner, same answers, same per-candidate
// bookkeeping, same error text — over randomized KBs and randomized
// candidate sets.

// cachedMatchesFresh runs mp once with no cache and twice through pc
// (the second cached pass compiles every candidate from a cached shape)
// and fails on any difference. It returns the second pass's shape hits.
func cachedMatchesFresh(t *testing.T, label string, k *kb.KB, pc *sparql.PlanCache, cfg Config, mp *propmap.Mapping) uint64 {
	t.Helper()
	ex, ctx := New(k, cfg), context.Background()
	freshRes, freshErr := ex.ExtractSessionCtx(ctx, mp, sparql.NewSnapshotSession(k.Store.Snapshot()))
	var shapeHits uint64
	for pass := 0; pass < 2; pass++ {
		sess := sparql.NewSnapshotSession(k.Store.Snapshot()).WithPlanCache(pc)
		cachedRes, cachedErr := ex.ExtractSessionCtx(ctx, mp, sess)
		shapeHits = sess.PlanStats().Hits
		if (freshErr == nil) != (cachedErr == nil) {
			t.Fatalf("%s pass=%d: err mismatch: %v vs %v", label, pass, freshErr, cachedErr)
		}
		if freshErr != nil {
			if freshErr.Error() != cachedErr.Error() {
				t.Fatalf("%s pass=%d: err text mismatch: %v vs %v", label, pass, freshErr, cachedErr)
			}
			continue
		}
		want, got := snapshot(freshRes), snapshot(cachedRes)
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Fatalf("%s pass=%d:\nfresh:  %+v\ncached: %+v", label, pass, want, got)
		}
	}
	return shapeHits
}

func TestSessionMatchesFreshDifferential(t *testing.T) {
	kbs := []*kb.KB{
		kb.Build(kb.Config{Seed: 17, SyntheticPersons: 50, SyntheticCities: 12, SyntheticBooks: 25}),
		kb.Build(kb.Config{Seed: 41, SyntheticPersons: 140, SyntheticCities: 35, SyntheticBooks: 70}),
	}
	kinds := []triplex.ExpectedKind{
		triplex.ExpectAny, triplex.ExpectPerson, triplex.ExpectPlace,
		triplex.ExpectDate, triplex.ExpectNumeric,
	}
	r := rand.New(rand.NewSource(23))
	pc := sparql.NewPlanCache(sparql.DefaultPlanCacheSize)
	var shapeServed uint64
	for ki, k := range kbs {
		for trial := 0; trial < 16; trial++ {
			kind := kinds[trial%len(kinds)]
			mp := synthMapping(r, k, kind, false)
			cfg := Config{MaxQueries: 256, Extensions: kind == triplex.ExpectNumeric}
			shapeServed += cachedMatchesFresh(t, fmt.Sprintf("kb=%d trial=%d kind=%v", ki, trial, kind), k, pc, cfg, mp)
		}
	}
	if shapeServed == 0 {
		t.Fatal("no second pass compiled from a cached shape: the differential compared fresh to fresh")
	}
}

// TestSessionMatchesFreshBoolean is the same differential over the ASK
// path.
func TestSessionMatchesFreshBoolean(t *testing.T) {
	k := kb.Build(kb.Config{Seed: 53, SyntheticPersons: 60, SyntheticCities: 15, SyntheticBooks: 30})
	r := rand.New(rand.NewSource(67))
	cfg := Config{MaxQueries: 256, Extensions: true}
	pc := sparql.NewPlanCache(sparql.DefaultPlanCacheSize)
	var shapeServed uint64
	for trial := 0; trial < 12; trial++ {
		mp := synthMapping(r, k, triplex.ExpectBoolean, true)
		shapeServed += cachedMatchesFresh(t, fmt.Sprintf("trial=%d", trial), k, pc, cfg, mp)
	}
	if shapeServed == 0 {
		t.Fatal("no second pass compiled from a cached shape: the differential compared fresh to fresh")
	}
}
