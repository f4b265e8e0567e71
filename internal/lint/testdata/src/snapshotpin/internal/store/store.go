// Package store is a miniature stand-in for the real triple store:
// just enough surface (Store, Snapshot, a few read methods) for the
// snapshotpin analyzer to resolve receiver types against.
package store

// Triple is a minimal triple.
type Triple struct{ S, P, O string }

// Snapshot is an immutable view; reads through it are always allowed.
type Snapshot struct{}

// Len returns the triple count.
func (sn *Snapshot) Len() int { return 0 }

// EstimateCardinality counts the triples matching the pattern.
func (sn *Snapshot) EstimateCardinality(pat Triple) int { return 0 }

// Store is the writer; execution packages must not read it directly.
type Store struct{}

// Snapshot pins the current state.
func (s *Store) Snapshot() *Snapshot { return &Snapshot{} }

// Len and Subjects stand for the reads the real Store keeps for a
// caller outside the tree.
func (s *Store) Len() int { return 0 }

// Subjects returns the subjects of (?, p, o).
func (s *Store) Subjects(p, o string) []string { return nil }

// Add inserts a triple.
func (s *Store) Add(t Triple) bool { return false }
