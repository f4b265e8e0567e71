// The shard-side read operations. This file is the only place in the
// package that reads triple data off a shard snapshot (ForEachMatchIDs
// / PostingList / the build-time partition scan) —
// the sharddomain qalint invariant. Everything here runs inside an
// attempt under the failure domain (domain.attempt), so a
// chaos-injected panic or latency at these call sites exercises the
// exact production path.

package shard

import (
	"context"

	"repro/internal/store"
)

// scanCheckEvery is how many matches a shard scan buffers between
// context checks: a cancelled or timed-out request stops paying for a
// large scan within this many matches.
const scanCheckEvery = 512

// opKind names one of the two reads a shard serves.
type opKind uint8

const (
	opScan    opKind = iota // pattern scan, buffered flat
	opPosting               // posting list of a two-bound pattern
)

// shardOp is one read against a pinned shard snapshot, as a plain
// value: crossing the failure domain allocates nothing, and the op
// could go on a wire as it is.
type shardOp struct {
	kind opKind
	pat  [3]store.ID // 0 = wildcard
}

// exec runs the op on one shard's snapshot. ctx is only read for the
// duration of the call and must not be retained: the domain recycles
// it (see call in domain.go).
func (op shardOp) exec(ctx context.Context, sn *store.Snapshot) ([]store.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if op.kind == opScan {
		return scan(ctx, sn, op.pat)
	}
	return postingList(sn, op.pat), nil
}

// scan buffers one shard's matches of pat as a flat [s,p,o ...]
// slice in the snapshot's deterministic per-case order. The gather
// view merges these partials back into the exact single-store stream.
func scan(ctx context.Context, sn *store.Snapshot, pat [3]store.ID) ([]store.ID, error) {
	est := sn.EstimateCardinalityIDs(pat)
	buf := make([]store.ID, 0, 3*est)
	n := 0
	var scanErr error
	sn.ForEachMatchIDs(pat, func(s, p, o store.ID) bool {
		buf = append(buf, s, p, o)
		n++
		if n%scanCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				scanErr = err
				return false
			}
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return buf, nil
}

// postingList returns one shard's posting list for a two-bound
// pattern, copied out of the snapshot (the caller may outlive the
// attempt; aliasing index memory across the domain boundary would tie
// result lifetime to shard snapshot pinning).
func postingList(sn *store.Snapshot, pat [3]store.ID) []store.ID {
	lst, ok := sn.PostingList(pat)
	if !ok || len(lst) == 0 {
		return nil
	}
	out := make([]store.ID, len(lst))
	copy(out, lst)
	return out
}

// partitionTriples splits sn's full contents into n subject-routed ID
// triple slices (the cluster build path). Scan order is ascending
// subject, so each shard's slice arrives in SPO order for its batch.
func partitionTriples(sn *store.Snapshot, n int) [][][3]store.ID {
	parts := make([][][3]store.ID, n)
	sn.ForEachMatchIDs([3]store.ID{}, func(s, p, o store.ID) bool {
		i := shardOf(s, n)
		parts[i] = append(parts[i], [3]store.ID{s, p, o})
		return true
	})
	return parts
}
