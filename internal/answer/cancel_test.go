package answer

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kb"
	"repro/internal/triplex"
)

// Cancellation tests for the request-scoped §2.3 run: a deadline
// expiring mid-run returns ctx.Err() promptly (bounded by one join
// step) and leaves the extractor reusable.

// TestFirstWinnerCancelBetweenCandidates: a context cancelled while a
// candidate runs lets that candidate finish (the query itself aborts at
// its next join step), starts no other, and returns the context error
// although later candidates would have won.
func TestFirstWinnerCancelBetweenCandidates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tried := 0
	winner, err := firstWinner(ctx, 1000, func(i int) bool {
		tried++
		if i == 2 {
			cancel()
		}
		return i == 5
	})
	if !errors.Is(err, context.Canceled) || winner != -1 {
		t.Fatalf("winner = %d, err = %v; want -1, context.Canceled", winner, err)
	}
	if tried != 3 {
		t.Fatalf("%d candidates tried, want 3: none may start after cancellation", tried)
	}
}

// TestFirstWinnerWinBeatsCancel: a candidate that wins is reported
// without error even when the context ended while it ran; a context
// that ends during the last, losing candidate is an error.
func TestFirstWinnerWinBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	winner, err := firstWinner(ctx, 50, func(i int) bool {
		if i == 3 {
			cancel()
		}
		return i == 3
	})
	if err != nil || winner != 3 {
		t.Fatalf("winner = %d, err = %v; want 3, nil", winner, err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	winner, err = firstWinner(ctx2, 4, func(i int) bool {
		if i == 3 {
			cancel2()
		}
		return false
	})
	if !errors.Is(err, context.Canceled) || winner != -1 {
		t.Fatalf("cancelled during the last candidate: winner = %d, err = %v", winner, err)
	}
}

// TestExtractCtxDeadlineMidRun builds a large randomized candidate set
// over a real KB and expires the deadline mid-execution: ExtractCtx
// must return the deadline error promptly, and the same Extractor must
// then answer an uncancelled request identically to a fresh one.
func TestExtractCtxDeadlineMidRun(t *testing.T) {
	k := kb.Build(kb.Config{Seed: 29, SyntheticPersons: 120, SyntheticCities: 30, SyntheticBooks: 60})
	r := rand.New(rand.NewSource(41))
	mp := synthMapping(r, k, triplex.ExpectAny, false)
	// Candidate sets with many members so the run is mid-flight when the
	// deadline hits.
	for i := 0; i < 4; i++ {
		mp.Triples[len(mp.Triples)-1].Predicates = append(
			mp.Triples[len(mp.Triples)-1].Predicates,
			synthMapping(r, k, triplex.ExpectAny, false).Triples[0].Predicates...)
	}
	e := New(k, Config{MaxQueries: 256})

	deadlineErrSeen := false
	for trial := 0; trial < 40 && !deadlineErrSeen; trial++ {
		d := time.Duration(trial%8) * 50 * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		start := time.Now()
		res, err := extract(ctx, e, mp)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("trial %d: err = %v, want DeadlineExceeded", trial, err)
			}
			if res != nil {
				t.Fatalf("trial %d: non-nil result alongside ctx error", trial)
			}
			// Prompt: bounded by one join step, which on this KB is far
			// below a second.
			if elapsed > 2*time.Second {
				t.Fatalf("trial %d: cancellation took %v", trial, elapsed)
			}
			deadlineErrSeen = true
		}
	}
	if !deadlineErrSeen {
		t.Skip("deadline never expired mid-run on this host")
	}

	// Reusable: the cancelled extractor answers an uncancelled request
	// identically to a fresh extractor.
	got, err := extract(context.Background(), e, mp)
	if err != nil {
		t.Fatalf("reuse after cancellation: %v", err)
	}
	want, err := extract(context.Background(), New(k, Config{MaxQueries: 256}), mp)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	wantSnap, gotSnap := snapshot(want), snapshot(got)
	if len(wantSnap.Candidates) != len(gotSnap.Candidates) ||
		wantSnap.Answers != gotSnap.Answers || wantSnap.WinnerIdx != gotSnap.WinnerIdx {
		t.Errorf("post-cancellation result diverged:\nwant %+v\ngot  %+v", wantSnap, gotSnap)
	}
}

// TestExtractCtxAlreadyCancelled: a context cancelled before the call
// returns immediately with its error.
func TestExtractCtxAlreadyCancelled(t *testing.T) {
	k := kb.Build(kb.Config{Seed: 11, SyntheticPersons: 40, SyntheticCities: 10, SyntheticBooks: 20})
	mp := synthMapping(rand.New(rand.NewSource(3)), k, triplex.ExpectAny, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := extract(ctx, New(k, Config{}), mp)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res = %v, err = %v", res, err)
	}
}

// TestExtractCtxBackgroundMatchesExtract: uncancelled calls on one
// extractor are repeatable — nothing one ExtractCtx leaves behind
// changes the next.
func TestExtractCtxBackgroundMatchesExtract(t *testing.T) {
	k := kb.Build(kb.Config{Seed: 11, SyntheticPersons: 40, SyntheticCities: 10, SyntheticBooks: 20})
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		mp := synthMapping(r, k, triplex.ExpectAny, false)
		e := New(k, Config{})
		a, errA := extract(context.Background(), e, mp)
		b, errB := extract(context.Background(), e, mp)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: err mismatch %v vs %v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		if sa, sb := snapshot(a), snapshot(b); len(sa.Candidates) != len(sb.Candidates) ||
			sa.Answers != sb.Answers || sa.WinnerIdx != sb.WinnerIdx {
			t.Fatalf("trial %d: results diverged", trial)
		}
	}
}
