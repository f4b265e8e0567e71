// Package answer is the second in-scope execution package.
package answer

import "repro/internal/store"

// Mutate writes from the execution layer — also a direct Store call.
func Mutate(st *store.Store) bool {
	return st.Add(store.Triple{}) // want `direct store\.Store\.Add call`
}
