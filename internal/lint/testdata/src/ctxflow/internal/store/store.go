// Package store is a miniature stand-in for the real triple store,
// with one scan-class method for the ctxflow store-reach rule.
package store

// Triple is a minimal triple.
type Triple struct{ S, P, O string }

// Snapshot is an immutable view.
type Snapshot struct{}

// Match is scan-class: its cost scales with the data.
func (sn *Snapshot) Match(pat Triple) []Triple { return nil }

// Len is a point lookup, not a scan.
func (sn *Snapshot) Len() int { return 0 }

// Store is the mutable store.
type Store struct{}

// Snapshot pins the current state.
func (s *Store) Snapshot() *Snapshot { return &Snapshot{} }
