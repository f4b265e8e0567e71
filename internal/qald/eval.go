package qald

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// QuestionResult is the evaluation outcome for one question.
type QuestionResult struct {
	Question Question
	// Status is the pipeline outcome.
	Status core.Status
	// Answered reports whether the system produced an answer set.
	Answered bool
	// Correct reports exact answer-set equality with the gold set
	// (only meaningful when Answered).
	Correct bool
	// System and Gold are the answer sets.
	System []rdf.Term
	Gold   []rdf.Term
	// WinningSPARQL is the system's selected query ("" if unanswered).
	WinningSPARQL string
}

// Report aggregates the evaluation in the paper's Table 2 terms:
// precision = correct/answered, recall = answered/total, F1 harmonic.
type Report struct {
	PerQuestion []QuestionResult
	Total       int
	Answered    int
	Correct     int
	Precision   float64
	Recall      float64
	F1          float64
}

// GoldCtx computes the gold answer set of a question against the KB;
// ASK gold queries yield a single xsd:boolean literal. The gold SPARQL
// query aborts between join steps when the context is cancelled.
func GoldCtx(ctx context.Context, k *kb.KB, q Question) ([]rdf.Term, error) {
	if strings.TrimSpace(q.GoldQuery) == "" {
		return nil, nil
	}
	res, err := sparql.ExecuteStringCtx(ctx, k.Store.Snapshot(), q.GoldQuery)
	if err != nil {
		return nil, fmt.Errorf("qald: gold query for Q%d: %w", q.ID, err)
	}
	if res.Form == sparql.FormAsk {
		v := "false"
		if res.Boolean {
			v = "true"
		}
		return []rdf.Term{rdf.NewTypedLiteral(v, rdf.XSDBoolean)}, nil
	}
	// Column reads the columnar result layout directly — one pass over
	// the flat ID rows, no per-row Binding maps.
	return res.Column("x"), nil
}

// EvaluateCtx runs the system over the questions, one at a time, and
// scores it as §3 does. The context reaches every gold query and every
// pipeline stage; when it is cancelled the evaluation stops and returns
// ctx's error.
func EvaluateCtx(ctx context.Context, s *core.System, questions []Question) (*Report, error) {
	rep := &Report{Total: len(questions)}
	for _, q := range questions {
		gold, err := GoldCtx(ctx, s.KB, q)
		if err != nil {
			return nil, err
		}
		res := s.AnswerCtx(ctx, q.Text)
		if res.Status == core.StatusCanceled {
			return nil, res.Err
		}
		qr := QuestionResult{
			Question:      q,
			Status:        res.Status,
			Answered:      res.Answered(),
			System:        res.Answers,
			Gold:          gold,
			WinningSPARQL: res.WinningSPARQL(),
		}
		if qr.Answered {
			qr.Correct = sameTermSet(res.Answers, gold)
			rep.Answered++
			if qr.Correct {
				rep.Correct++
			}
		}
		rep.PerQuestion = append(rep.PerQuestion, qr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rep.Answered > 0 {
		rep.Precision = float64(rep.Correct) / float64(rep.Answered)
	}
	if rep.Total > 0 {
		rep.Recall = float64(rep.Answered) / float64(rep.Total)
	}
	if rep.Precision+rep.Recall > 0 {
		rep.F1 = 2 * rep.Precision * rep.Recall / (rep.Precision + rep.Recall)
	}
	return rep, nil
}

// sameTermSet compares two term sets ignoring order and duplicates.
func sameTermSet(a, b []rdf.Term) bool {
	as := map[rdf.Term]bool{}
	for _, t := range a {
		as[t] = true
	}
	bs := map[rdf.Term]bool{}
	for _, t := range b {
		bs[t] = true
	}
	if len(as) != len(bs) {
		return false
	}
	for t := range as {
		if !bs[t] {
			return false
		}
	}
	return len(as) > 0
}

// Table2 renders the paper-vs-measured comparison for Table 2.
func (r *Report) Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: Precision, Recall and F1 values\n")
	sb.WriteString("                 Precision   Recall   F1\n")
	sb.WriteString("Paper             83 %        32 %     46 %\n")
	fmt.Fprintf(&sb, "Measured          %2.0f %%        %2.0f %%     %2.0f %%   (%d/%d correct, %d/%d answered)\n",
		r.Precision*100, r.Recall*100, r.F1*100,
		r.Correct, r.Answered, r.Answered, r.Total)
	return sb.String()
}

// PerQuestionTable renders the per-question outcome listing (the
// "results for each question" the paper publishes on its homepage).
func (r *Report) PerQuestionTable(k *kb.KB) string {
	var sb strings.Builder
	for _, qr := range r.PerQuestion {
		mark := "—"
		switch {
		case qr.Answered && qr.Correct:
			mark = "✓"
		case qr.Answered:
			mark = "✗"
		}
		fmt.Fprintf(&sb, "Q%02d %s [%s] %s\n", qr.Question.ID, mark,
			qr.Question.Category, qr.Question.Text)
		if qr.Answered {
			fmt.Fprintf(&sb, "     system: %s\n", renderTerms(k, qr.System))
			if !qr.Correct {
				fmt.Fprintf(&sb, "     gold:   %s\n", renderTerms(k, qr.Gold))
			}
		} else {
			fmt.Fprintf(&sb, "     status: %s\n", qr.Status)
		}
	}
	return sb.String()
}

// ByCategory aggregates answered/correct counts per category.
func (r *Report) ByCategory() map[Category][3]int { // total, answered, correct
	out := map[Category][3]int{}
	for _, qr := range r.PerQuestion {
		v := out[qr.Question.Category]
		v[0]++
		if qr.Answered {
			v[1]++
		}
		if qr.Correct {
			v[2]++
		}
		out[qr.Question.Category] = v
	}
	return out
}

func renderTerms(k *kb.KB, ts []rdf.Term) string {
	parts := make([]string, 0, len(ts))
	for _, t := range ts {
		if t.IsIRI() && k != nil {
			parts = append(parts, k.LabelOf(t))
		} else {
			parts = append(parts, t.Value)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}
