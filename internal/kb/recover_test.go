package kb_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestRecoveredEqualsLive: a history applied to the built-in KB under a
// WAL Manager that is then abandoned without Close (a kill -9) recovers,
// through wal.Recover and kb.FromStore, into exactly the store the live
// server held: the same generation, the same triple set, and the same
// dictionary — orphaned terms included, ID for ID — with or without a
// compaction in between. Recovery infers nothing: the live ApplyBatch
// never materialised the new scientist's rdf:type closure, so the
// recovered store must not either.
func TestRecoveredEqualsLive(t *testing.T) {
	zorblax := rdf.Res("Zorblax_Quintero")
	height := rdf.Triple{S: rdf.Res("Michael_Jordan"), P: rdf.Ont("height"), O: rdf.NewTypedLiteral("1.98", rdf.XSDDouble)}
	oldLabel := rdf.Triple{S: rdf.Res("Orhan_Pamuk"), P: rdf.Label(), O: rdf.NewLangLiteral("Orhan Pamuk", "en")}
	newLabel := rdf.Triple{S: oldLabel.S, P: oldLabel.P, O: rdf.NewLangLiteral("Ferit Orhan Pamuk", "en")}
	history := []struct {
		ops            []store.BatchOp
		added, removed int
	}{
		{[]store.BatchOp{{Triples: []rdf.Triple{
			{S: zorblax, P: rdf.Label(), O: rdf.NewLangLiteral("Zorblax Quintero", "en")},
			{S: zorblax, P: rdf.Type(), O: rdf.Ont("Scientist")},
			{S: zorblax, P: rdf.Ont("birthPlace"), O: rdf.Res("Berlin")},
		}}}, 3, 0},
		{[]store.BatchOp{{Delete: true, Triples: []rdf.Triple{height}}}, 0, 1},
		{[]store.BatchOp{{Delete: true, Triples: []rdf.Triple{oldLabel}}, {Triples: []rdf.Triple{newLabel}}}, 1, 1},
	}
	// compactAfter is the number of batches the newest segment holds
	// beyond the checkpoint Open writes; the rest are the log tail.
	for name, compactAfter := range map[string]int{"log tail": 0, "compacted mid-history": 1, "segment only": len(history)} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rec, err := wal.Recover(dir, wal.Options{CompactBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			k := kb.Build(kb.DefaultConfig())
			m, err := rec.Open(k.Store)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range history {
				c, err := m.Apply(context.Background(), b.ops)
				if err != nil {
					t.Fatal(err)
				}
				if c.Added != b.added || c.Removed != b.removed {
					t.Fatalf("batch %d added %d and removed %d, want %d and %d", i, c.Added, c.Removed, b.added, b.removed)
				}
				if i+1 == compactAfter {
					if err := m.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			live := k.Store.Snapshot()
			if _, ok := live.Lookup(height.O); !ok || len(live.Match(rdf.Triple{O: height.O})) != 0 {
				t.Fatalf("%v is not an orphaned dictionary term", height.O)
			}
			// m is abandoned here without Close.

			rec2, err := wal.Recover(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want := len(history) - compactAfter; rec2.Records != want {
				t.Fatalf("replayed %d log records, want %d", rec2.Records, want)
			}
			k2, err := kb.FromStore(rec2.Store)
			if err != nil {
				t.Fatal(err)
			}
			got := k2.Store.Snapshot()
			if got.Gen() != live.Gen() || rec2.Gen != live.Gen() {
				t.Errorf("recovered generation %d (store %d), live %d", rec2.Gen, got.Gen(), live.Gen())
			}
			if got.Len() != live.Len() {
				t.Fatalf("recovered %d triples, live %d", got.Len(), live.Len())
			}
			if !reflect.DeepEqual(got.Triples(), live.Triples()) {
				t.Error("recovered triples differ from the live store's")
			}
			if !reflect.DeepEqual(got.TermsView(), live.TermsView()) {
				t.Error("recovered dictionary differs from the live store's: IDs moved across the restart")
			}
		})
	}
}
