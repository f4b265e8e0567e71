package kb_test

import (
	"runtime"
	"testing"

	"repro/internal/kb"
	"repro/internal/testutil"
)

// TestBuildPublishesTwice pins boot as a bulk load: the built-in KB is
// two write batches — the asserted triples, then the inferred rdf:type
// closure — so it boots at generation 2; a dump that already carries
// the closure loads in one. While every helper committed its own triples
// this read about 6,600.
func TestBuildPublishesTwice(t *testing.T) {
	built := kb.Build(kb.DefaultConfig()).Store.Snapshot()
	if gen := built.Gen(); gen != 2 {
		t.Errorf("kb.Build published generation %d, want 2 (facts, then the type closure)", gen)
	}
	loaded, err := kb.FromTriples(built.Triples())
	if err != nil {
		t.Fatal(err)
	}
	if gen := loaded.Store.Snapshot().Gen(); gen != 1 {
		t.Errorf("kb.FromTriples of a materialised dump published generation %d, want 1", gen)
	}
}

// buildCost is what one kb.Build of cfg allocates, and the size of the
// store it returns.
func buildCost(cfg kb.Config) (bytes, mallocs uint64, triples int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k := kb.Build(cfg)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, k.Store.Snapshot().Len()
}

// TestBuildAllocationCeiling holds the build's allocation, which unlike
// its wall time reads the same on any host: the default KB within 10%
// of the 1.90 MB and 8,923 mallocs it takes written by ID with one
// allocation per rebuilt bucket (14,103 while a bucket's offsets were
// an array of their own; 4.47 MB and
// 20.5k while the helpers queued rdf.Triples for AddAll and the
// closure was found in term space; one snapshot per triple cost 205 MB
// and 188,557), and the bytes per triple of a KB four times the size
// within 1.25× of the default's — per-triple publication cloned whole
// buckets, so its 31 KB per triple grew with the KB.
func TestBuildAllocationCeiling(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation figures are measured without the race detector")
	}
	cfg := kb.DefaultConfig()
	bytes, mallocs, triples := buildCost(cfg)
	t.Logf("default build: %.1f MB, %d mallocs, %d triples", float64(bytes)/1e6, mallocs, triples)
	const maxBytes, maxMallocs = 2_090_000, 9_820
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Errorf("default build allocates %d B in %d mallocs, ceiling %d B and %d", bytes, mallocs, maxBytes, maxMallocs)
	}
	cfg.SyntheticPersons *= 4
	cfg.SyntheticCities *= 4
	cfg.SyntheticBooks *= 4
	bytes4, _, triples4 := buildCost(cfg)
	per, per4 := float64(bytes)/float64(triples), float64(bytes4)/float64(triples4)
	t.Logf("4x build: %.1f MB, %d triples; %.0f B per triple against %.0f", float64(bytes4)/1e6, triples4, per4, per)
	if per4 > 1.25*per {
		t.Errorf("%.0f B per triple at 4x the synthetic sizes against %.0f at 1x: the build is not linear in KB size", per4, per)
	}
}
