package answer

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kb"
	"repro/internal/triplex"
)

// The session differential at the §2.3 level: extraction through the
// shared per-question sparql.Session must produce a Result
// byte-identical to fresh-executor execution (Config.
// DisableSessionReuse) over randomized KBs and randomized candidate
// sets — same winner, same answers, same per-candidate bookkeeping.
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
	for ki, k := range kbs {
		for trial := 0; trial < 16; trial++ {
			kind := kinds[trial%len(kinds)]
			mp := synthMapping(r, k, kind, false)
			cfg := Config{MaxQueries: 256, EnableAggregation: kind == triplex.ExpectNumeric}

			cfg.DisableSessionReuse = true
			freshRes, freshErr := New(k, cfg).Extract(mp)
			cfg.DisableSessionReuse = false
			sessRes, sessErr := New(k, cfg).Extract(mp)
			if (freshErr == nil) != (sessErr == nil) {
				t.Fatalf("kb=%d trial=%d: err mismatch: %v vs %v", ki, trial, freshErr, sessErr)
			}
			if freshErr != nil {
				if freshErr.Error() != sessErr.Error() {
					t.Fatalf("kb=%d trial=%d: err text mismatch: %v vs %v", ki, trial, freshErr, sessErr)
				}
				continue
			}
			want, got := snapshot(freshRes), snapshot(sessRes)
			if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
				t.Fatalf("kb=%d trial=%d kind=%v:\nfresh:   %+v\nsession: %+v",
					ki, trial, kind, want, got)
			}
		}
	}
}

// TestSessionMatchesFreshBoolean is the same differential over the ASK
// path (shared session across the boolean candidates).
func TestSessionMatchesFreshBoolean(t *testing.T) {
	k := kb.Build(kb.Config{Seed: 53, SyntheticPersons: 60, SyntheticCities: 15, SyntheticBooks: 30})
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 12; trial++ {
		mp := synthMapping(r, k, triplex.ExpectBoolean, true)
		cfg := Config{MaxQueries: 256, EnableBoolean: true, DisableSessionReuse: true}
		freshRes, freshErr := New(k, cfg).Extract(mp)
		cfg.DisableSessionReuse = false
		sessRes, sessErr := New(k, cfg).Extract(mp)
		if (freshErr == nil) != (sessErr == nil) {
			t.Fatalf("trial=%d: err mismatch: %v vs %v", trial, freshErr, sessErr)
		}
		if freshErr != nil {
			continue
		}
		want, got := snapshot(freshRes), snapshot(sessRes)
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Fatalf("trial=%d:\nfresh:   %+v\nsession: %+v", trial, want, got)
		}
	}
}
