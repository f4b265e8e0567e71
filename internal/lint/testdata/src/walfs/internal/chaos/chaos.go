// Package chaos is a stub of the repo's fault-injection package, just
// enough for the walfs testdata to type-check HitCtx calls: the
// analyzer resolves fault points by package path, not by name alone.
package chaos

import "context"

// HitCtx is the stub fault point.
func HitCtx(ctx context.Context, point string) error { return nil }
