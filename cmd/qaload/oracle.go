package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qald"
)

// expected is what the server must say about one question: the
// pipeline status and the rendered answer set.
type expected struct {
	status  string
	answers []string
}

// oracleSystem is the reference the served answers are held against: an
// in-process pipeline over the same built-in KB with no answer cache.
// It shares nothing with the server process but the source code.
func oracleSystem() *core.System {
	return core.New(core.DefaultConfig())
}

// oracle answers every question of the stream in process, in stream
// order.
func oracle(ctx context.Context, sys *core.System, questions []string) []expected {
	out := make([]expected, len(questions))
	for i, q := range questions {
		res := sys.AnswerCtx(ctx, q)
		out[i] = expected{status: res.Status.String(), answers: res.AnswerStrings(sys.KB)}
	}
	return out
}

// matches reports whether a served response equals the oracle's.
func (e expected) matches(status string, answers []string) bool {
	return status == e.status && slices.Equal(answers, e.answers)
}

// qaldScore recomputes the paper's Table 2 figures from served answers:
// precision = correct/answered, recall = answered/total, over the
// 55 evaluated questions, with correctness being exact equality with
// the gold answer set. served maps question text to the answers the
// server returned (absent or empty = unanswered).
func qaldScore(ctx context.Context, k *kb.KB, served map[string][]string) (p, r, f1 float64, err error) {
	qs := qald.Questions()
	answered, correct := 0, 0
	for _, q := range qs {
		got := served[q.Text]
		if len(got) == 0 {
			continue
		}
		answered++
		gold, err := qald.GoldCtx(ctx, k, q)
		if err != nil {
			return 0, 0, 0, err
		}
		if sameStringSet(got, (&core.Result{Answers: gold}).AnswerStrings(k)) {
			correct++
		}
	}
	if answered > 0 {
		p = float64(correct) / float64(answered)
	}
	r = float64(answered) / float64(len(qs))
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return p, r, f1, nil
}

// checkQALD asserts the reproduction's headline numbers, to the two
// decimals the paper reports them at.
func checkQALD(p, r, f1 float64) error {
	round := func(x float64) float64 { return math.Round(x*100) / 100 }
	if round(p) != 0.83 || round(r) != 0.33 || round(f1) != 0.47 {
		return fmt.Errorf("QALD P/R/F1 from served answers = %.2f/%.2f/%.2f, want 0.83/0.33/0.47", p, r, f1)
	}
	return nil
}

func sameStringSet(a, b []string) bool {
	set := func(xs []string) []string {
		s := slices.Clone(xs)
		slices.Sort(s)
		return slices.Compact(s)
	}
	return slices.Equal(set(a), set(b))
}
