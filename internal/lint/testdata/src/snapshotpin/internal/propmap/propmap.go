// Package propmap is the other §2.2 mapping package in scope.
package propmap

import "repro/internal/store"

// Known asks the live store mid-request.
func Known(st *store.Store) bool {
	return st.Len() > 0 // want `direct store\.Store\.Len call`
}

// KnownPinned reads the request's snapshot — compliant.
func KnownPinned(sn *store.Snapshot) bool {
	return sn.EstimateCardinality(store.Triple{P: "type"}) > 0
}
