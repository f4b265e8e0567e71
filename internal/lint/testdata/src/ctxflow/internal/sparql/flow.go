// Package sparql exercises all three ctxflow rules inside an
// execution package.
package sparql

import (
	"context"

	"repro/internal/store"
)

// Execute mints a root context in library code instead of threading
// the caller's.
func Execute(st *store.Store) error {
	ctx := context.Background() // want `context\.Background in library code`
	return ExecuteCtx(ctx, st)
}

// ExecuteCtx threads the context first — compliant on every rule.
func ExecuteCtx(ctx context.Context, st *store.Store) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_ = st.Snapshot().Match(store.Triple{})
	return nil
}

// Lookup takes its context in second position.
func Lookup(st *store.Store, ctx context.Context) error { // want `context\.Context must be the first parameter`
	return ctx.Err()
}

// MatchAll scans the snapshot with no way to cancel the scan.
func MatchAll(sn *store.Snapshot) []store.Triple { // want `exported MatchAll scans the store \(Snapshot\.Match\) but takes no context`
	out := sn.Match(store.Triple{})
	if len(out) == 0 {
		return nil
	}
	return out
}

// size is unexported: the store-reach rule only covers the exported
// API surface.
func size(sn *store.Snapshot) []store.Triple {
	all := sn.Match(store.Triple{})
	return all
}
