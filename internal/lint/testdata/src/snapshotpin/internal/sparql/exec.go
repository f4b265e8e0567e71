// Package sparql exercises snapshotpin inside an execution package:
// direct Store reads are violations, pinned-Snapshot reads are not.
package sparql

import "repro/internal/store"

// RunPinned reads through a pinned snapshot — compliant.
func RunPinned(st *store.Store) int {
	sn := st.Snapshot()
	return sn.Len()
}

// Card reads the store directly: two such reads in one query can land
// on different generations.
func Card(st *store.Store) int {
	return st.Len() // want `direct store\.Store\.Len call`
}

// PinOnly calls the pin itself, which is the one allowed Store method.
func PinOnly(st *store.Store) *store.Snapshot {
	return st.Snapshot()
}
