// Package ner is a §2.2 mapping package, in scope since its indexes
// became boot-time: it may pin a snapshot to build them, and must not
// read the live store beside them.
package ner

import "repro/internal/store"

// Linker holds what NewLinker read from one snapshot.
type Linker struct {
	st     *store.Store
	labels int
}

// NewLinker builds from a single pinned snapshot — compliant.
func NewLinker(st *store.Store) *Linker {
	sn := st.Snapshot()
	return &Linker{st: st, labels: sn.EstimateCardinality(store.Triple{P: "label"})}
}

// Degree scans the live store per request: it can see a later
// generation than the one labels was counted on.
func (l *Linker) Degree(entity string) int {
	return len(l.st.Subjects("link", entity)) // want `direct store\.Store\.Subjects call`
}
