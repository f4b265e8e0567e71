package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/patterns"
	"repro/internal/propmap"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/triplex"
	"repro/internal/wordnet"
)

func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The gather view must be a drop-in StoreView.
var _ sparql.StoreView = (*View)(nil)

// fastConfig keeps the failure domain snappy for tests: real clock,
// tiny backoffs.
func fastConfig() Config {
	return Config{
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    2,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
		Seed:           7,
	}
}

// testStore builds a random §2.3-shaped graph: a type layer plus
// property layers over a shared entity space (the same shape the
// sparql session differentials use).
func testStore(rng *rand.Rand, nEnt, nProps int) (*store.Store, []rdf.Term) {
	st := store.New()
	var batch []rdf.Triple
	classes := []rdf.Term{rdf.Ont("Person"), rdf.Ont("City"), rdf.Ont("Book")}
	props := make([]rdf.Term, nProps)
	for i := range props {
		props[i] = rdf.Ont(fmt.Sprintf("p%d", i))
	}
	for e := 0; e < nEnt; e++ {
		ent := rdf.Res(fmt.Sprintf("E%d", e))
		batch = append(batch, rdf.Triple{S: ent, P: rdf.Type(), O: classes[e%len(classes)]})
		for _, p := range props {
			if rng.Intn(3) == 0 {
				continue
			}
			var obj rdf.Term
			switch rng.Intn(3) {
			case 0:
				obj = rdf.Res(fmt.Sprintf("E%d", rng.Intn(nEnt)))
			case 1:
				obj = rdf.NewInteger(int64(rng.Intn(40)))
			default:
				obj = rdf.NewLiteral(fmt.Sprintf("lit-%d", rng.Intn(25)))
			}
			batch = append(batch, rdf.Triple{S: ent, P: p, O: obj})
		}
	}
	st.AddAll(batch)
	return st, props
}

// workload covers every executor read path: bound/wildcard subjects,
// posting-list joins, FILTER, ORDER BY (term ranks), COUNT over a
// filtered pattern and ASK.
func workload(props []rdf.Term) []*sparql.Query {
	x, p := rdf.NewVar("x"), rdf.NewVar("p")
	var qs []*sparql.Query
	for _, class := range []rdf.Term{rdf.Ont("Person"), rdf.Ont("City")} {
		for _, prop := range props {
			qs = append(qs,
				&sparql.Query{Form: sparql.FormSelect, Distinct: true, Projection: []string{"x"}, Limit: -1,
					Patterns: []rdf.Triple{
						{S: p, P: rdf.Type(), O: class},
						{S: p, P: prop, O: x},
					}},
				&sparql.Query{Form: sparql.FormSelect, Distinct: true, Projection: []string{"x"}, Limit: -1,
					Patterns: []rdf.Triple{
						{S: p, P: rdf.Type(), O: class},
						{S: x, P: prop, O: p},
					}},
				&sparql.Query{Form: sparql.FormAsk, Limit: -1,
					Patterns: []rdf.Triple{{S: rdf.Res("E1"), P: prop, O: x}}},
				&sparql.Query{Form: sparql.FormSelect,
					Count: &sparql.CountSpec{Var: "x", Distinct: true, As: "x"}, Limit: -1,
					Patterns: []rdf.Triple{
						{S: p, P: rdf.Type(), O: class},
						{S: p, P: prop, O: x},
					}},
			)
		}
	}
	qs = append(qs,
		&sparql.Query{Form: sparql.FormSelect, Star: true, Limit: -1,
			Patterns: []rdf.Triple{{S: p, P: props[0], O: x}},
			Filters: []*sparql.Comparison{{Op: ">", Left: &sparql.VarExpr{Name: "x"},
				Right: &sparql.TermExpr{Term: rdf.NewInteger(20)}}},
		},
		&sparql.Query{Form: sparql.FormSelect, Limit: 7,
			Count:    &sparql.CountSpec{Var: "p", Distinct: true, As: "n"},
			Patterns: []rdf.Triple{{S: p, P: props[len(props)-1], O: x}},
			Filters: []*sparql.Comparison{{Op: "<=", Left: &sparql.VarExpr{Name: "x"},
				Right: &sparql.TermExpr{Term: rdf.NewInteger(10)}}},
		},
		&sparql.Query{Form: sparql.FormSelect, Projection: []string{"p", "x"}, Limit: -1,
			Patterns: []rdf.Triple{{S: p, P: props[0], O: x}},
			OrderBy:  []sparql.OrderKey{{Expr: &sparql.VarExpr{Name: "x"}, Desc: true}},
		},
	)
	return qs
}

// renderResult serialises a result fully — vars, every term, in order
// — so equality means byte-identical observable output.
func renderResult(r *sparql.Result) string {
	if r.Form == sparql.FormAsk {
		return fmt.Sprintf("ASK %v", r.Boolean)
	}
	key := fmt.Sprintf("%v/%d:", r.Vars, r.Len())
	for row := 0; row < r.Len(); row++ {
		for col := range r.Vars {
			if t, ok := r.TermAt(row, col); ok {
				key += t.String()
			}
			key += "|"
		}
		key += ";"
	}
	return key
}

// runWorkload executes qs through sess and returns the rendered
// results (or error markers).
func runWorkload(t testing.TB, ctx context.Context, sess *sparql.Session, qs []*sparql.Query) []string {
	t.Helper()
	out := make([]string, len(qs))
	for i, q := range qs {
		res, err := sess.ExecuteCtx(ctx, q)
		if err != nil {
			out[i] = "ERR " + err.Error()
			continue
		}
		out[i] = renderResult(res)
	}
	return out
}

// TestGatherDifferential: the healthy N-shard gather is byte-identical
// to single-store execution for N ∈ {1, 2, 4}, across random graphs.
func TestGatherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 4; trial++ {
		src, props := testStore(rng, 40+rng.Intn(80), 3+rng.Intn(3))
		qs := workload(props)
		want := runWorkload(t, ctx, sparql.NewSnapshotSession(src.Snapshot()), qs)
		for _, n := range []int{1, 2, 4} {
			c := NewCluster(src, n, fastConfig())
			v := c.NewView(ctx)
			got := runWorkload(t, ctx, sparql.NewViewSession(v), qs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d query %d diverged:\nshard:  %s\nsingle: %s",
						trial, n, i, got[i], want[i])
				}
			}
			if err := v.Err(); err != nil {
				t.Fatalf("trial %d n=%d: healthy view reported %v", trial, n, err)
			}
			if out := v.Outcome(); out.Degraded || out.ShardsAnswered != n {
				t.Fatalf("trial %d n=%d: healthy outcome %+v", trial, n, out)
			}
		}
	}
}

// entityFixture is the built-in KB with qaload's entity_cold questions
// mapped through §2.1–§2.2, built once: the input of the §2.3 answer
// stage, whose type filter and orientation typing are the callers of
// the session's type-set read.
var entityFixture = sync.OnceValues(func() (*kb.KB, []*propmap.Mapping) {
	k := kb.Default()
	pats := patterns.Mine(k, k.Corpus(kb.DefaultCorpusConfig()), patterns.DefaultMinerConfig())
	mapper := propmap.New(k, wordnet.Default(), pats, ner.NewLinker(k), propmap.DefaultConfig())
	var mapped []*propmap.Mapping
	for _, q := range testutil.EntityQuestions(k) {
		ext, err := triplex.ExtractOpts(q, triplex.Options{})
		if err != nil {
			continue
		}
		if mp, err := mapper.Map(ext); err == nil {
			mapped = append(mapped, mp)
		}
	}
	return k, mapped
})

// renderAnswer serialises everything the answer stage decided for one
// question: the answers, and per candidate whether it ran, what it
// matched and what survived the type filter.
func renderAnswer(res *answer.Result, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v", res.Answers)
	for _, cq := range res.Candidates {
		fmt.Fprintf(&sb, "\n%s executed=%v raw=%d answers=%v err=%v", cq.SPARQL, cq.Executed, cq.Raw, cq.Answers, cq.Err)
	}
	return sb.String()
}

// extractAll answers every mapped question through one fresh session
// per question over the view newView pins.
func extractAll(ctx context.Context, ex *answer.Extractor, mapped []*propmap.Mapping, newView func() sparql.StoreView) []string {
	out := make([]string, len(mapped))
	for i, mp := range mapped {
		sess := sparql.NewViewSession(newView())
		out[i] = renderAnswer(ex.ExtractSessionCtx(ctx, mp, sess))
	}
	return out
}

// TestGatherDifferentialEntityQuestions extends the differential end
// to end: qaload's entity_cold questions through
// answer.ExtractSessionCtx answer the same, candidate for candidate,
// over a healthy N-shard view and over the single store — the path on
// which every rdf:type probe is a type-set read.
func TestGatherDifferentialEntityQuestions(t *testing.T) {
	k, mapped := entityFixture()
	if len(mapped) < 1000 {
		t.Fatalf("only %d entity questions mapped", len(mapped))
	}
	ctx := context.Background()
	ex := answer.New(k, answer.DefaultConfig())
	snap := k.Store.Snapshot()
	want := extractAll(ctx, ex, mapped, func() sparql.StoreView { return snap })
	answered := 0
	for _, w := range want {
		if !strings.HasPrefix(w, "[]") && !strings.HasPrefix(w, "ERR") {
			answered++
		}
	}
	if answered < len(want)/2 {
		t.Fatalf("single store answered only %d of %d questions: the differential would prove little", answered, len(want))
	}
	for _, n := range []int{1, 2, 4} {
		c := NewCluster(k.Store, n, fastConfig())
		var views []*View
		got := extractAll(ctx, ex, mapped, func() sparql.StoreView {
			v := c.NewView(ctx)
			views = append(views, v)
			return v
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d %q diverged:\nshard:  %s\nsingle: %s", n, mapped[i].Extraction.Question, got[i], want[i])
			}
		}
		for _, v := range views {
			if err := v.Err(); err != nil {
				t.Fatalf("n=%d: healthy view reported %v", n, err)
			}
		}
	}
}

// TestPartitioningDisjointAndComplete: shards hold exactly the
// subject-routed slices — sizes sum to the source, every triple lives
// on its owner.
func TestPartitioningDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, _ := testStore(rng, 90, 4)
	const n = 4
	c := NewCluster(src, n, fastConfig())
	total := 0
	for i := 0; i < n; i++ {
		total += c.ShardLen(i)
	}
	if total != src.Snapshot().Len() {
		t.Fatalf("shard sizes sum to %d, source has %d", total, src.Snapshot().Len())
	}
	sn := src.Snapshot()
	sn.ForEachMatchIDs([3]store.ID{}, func(s, p, o store.ID) bool {
		owner := ShardOf(s, n)
		if !c.shards[owner].Snapshot().HasIDs(s, p, o) {
			t.Fatalf("triple (%d %d %d) missing from owner shard %d", s, p, o, owner)
		}
		return true
	})
}

// TestApplyBatchMirrors: live mutation through the cluster keeps the
// shards in lockstep with the source — the post-batch differential
// still holds, including deletes and dictionary growth, and matches a
// cluster rebuilt from scratch off the mutated source.
func TestApplyBatchMirrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src, props := testStore(rng, 60, 4)
	c := NewCluster(src, 3, fastConfig())
	ctx := context.Background()

	// One batch: delete a few existing triples, insert new-term triples.
	var del []rdf.Triple
	src.Snapshot().ForEachMatch(rdf.Triple{}, func(tr rdf.Triple) bool {
		del = append(del, tr)
		return len(del) < 5
	})
	ins := []rdf.Triple{
		{S: rdf.Res("NEW-A"), P: rdf.Ont("pnew"), O: rdf.NewInteger(777)},
		{S: rdf.Res("NEW-B"), P: props[0], O: rdf.Res("E1")},
		{S: rdf.Res("E1"), P: props[0], O: rdf.NewLiteral("fresh")},
	}
	added, removed := c.ApplyBatch([]store.BatchOp{
		{Delete: true, Triples: del},
		{Triples: ins},
	})
	if added == 0 || removed == 0 {
		t.Fatalf("batch applied nothing: added=%d removed=%d", added, removed)
	}

	qs := append(workload(props),
		&sparql.Query{Form: sparql.FormSelect, Star: true, Limit: -1,
			Patterns: []rdf.Triple{{S: rdf.Res("NEW-A"), P: rdf.Ont("pnew"), O: rdf.NewVar("x")}}},
	)
	want := runWorkload(t, ctx, sparql.NewSnapshotSession(src.Snapshot()), qs)
	got := runWorkload(t, ctx, sparql.NewViewSession(c.NewView(ctx)), qs)
	rebuilt := NewCluster(src, 3, fastConfig())
	got2 := runWorkload(t, ctx, sparql.NewViewSession(rebuilt.NewView(ctx)), qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-batch query %d diverged from source:\nshard:  %s\nsingle: %s", i, got[i], want[i])
		}
		if got2[i] != want[i] {
			t.Fatalf("rebuilt cluster query %d diverged: %s vs %s", i, got2[i], want[i])
		}
	}
	// Mirrored partitioning still disjoint + complete.
	total := 0
	for i := 0; i < c.N(); i++ {
		total += c.ShardLen(i)
	}
	if total != src.Snapshot().Len() {
		t.Fatalf("post-batch shard sizes sum to %d, source has %d", total, src.Snapshot().Len())
	}
}

// TestApplyUpdateReportsGeneration: the Updater surface returns the
// published source generation.
func TestApplyUpdateReportsGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src, _ := testStore(rng, 20, 2)
	c := NewCluster(src, 2, fastConfig())
	gen, added, _, err := c.ApplyUpdate(context.Background(), []store.BatchOp{
		{Triples: []rdf.Triple{{S: rdf.Res("U1"), P: rdf.Ont("pu"), O: rdf.NewInteger(1)}}},
	})
	if err != nil || added != 1 {
		t.Fatalf("ApplyUpdate: added=%d err=%v", added, err)
	}
	if got := src.Snapshot().Gen(); got != gen {
		t.Fatalf("reported gen %d, source at %d", gen, got)
	}
}
