package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/kb"
	"repro/internal/qald"
	"repro/internal/rdf"
)

// workload is one traffic mix: the qaserve flags it boots with, the
// question stream the readers cycle and, for update_mix, the update
// stream the writer cycles. The stream is a pure function of the seed;
// the server sees only the generated requests.
type workload struct {
	name string
	// serverArgs are the qaserve flags beyond -addr; every other flag
	// keeps its default. update_mix additionally gets -data-dir.
	serverArgs []string
	// questions is one cycle of the stream: every distinct question
	// exactly once, in the seed's order.
	questions []string
	// hot says what the answer cache must do after the warm-up pass:
	// serve every request (true) or none (false). The run fails when
	// the measured hit ratio says otherwise, because the workload would
	// no longer mean what its name says.
	hot bool
	// durable marks update_mix: the server runs on a data dir, one
	// reader shares it with one writer, and the run ends with a
	// kill -9 durability check.
	durable bool
}

var workloadNames = []string{"qald_hot", "entity_cold", "update_mix", "shard4_cold"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "qald_hot":
		var qs []string
		for _, q := range qald.FullSet() {
			qs = append(qs, q.Text)
		}
		return &workload{name: name, questions: shuffled(qs, seed), hot: true}, nil
	case "entity_cold":
		return &workload{name: name, questions: entityQuestions(seed)}, nil
	case "update_mix":
		return &workload{name: name, questions: entityQuestions(seed), durable: true}, nil
	case "shard4_cold":
		return &workload{name: name, questions: entityQuestions(seed), serverArgs: []string{"-shards", "4"}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// entityTemplates are the eight relations of the cold stream, by the
// class of entity each is asked about.
var entityTemplates = []struct {
	class     string
	templates []string
}{
	{"Person", []string{"When was %s born?", "When did %s die?", "How tall is %s?", "Who is the spouse of %s?"}},
	{"Book", []string{"Who is the author of %s?", "How many pages does %s have?"}},
	{"City", []string{"What is the population of %s?", "What is the elevation of %s?"}},
}

// entityQuestions renders every template over every Person, Book and
// City label of the built-in KB (about 1.6k distinct questions, well
// past the 1024-entry answer cache) and shuffles them by seed. The set
// is the same for every seed — only the order moves — so the work per
// cycle does not depend on the seed.
func entityQuestions(seed int64) []string {
	k := kb.Default()
	seen := map[string]bool{}
	var qs []string
	for _, et := range entityTemplates {
		class, ok := k.ClassByLocal(et.class)
		if !ok {
			panic("qaload: built-in KB has no class " + et.class)
		}
		labels := map[string]bool{}
		for _, e := range k.Store.Subjects(rdf.Type(), class.Term) {
			labels[k.LabelOf(e)] = true
		}
		sorted := make([]string, 0, len(labels))
		for l := range labels {
			sorted = append(sorted, l)
		}
		sort.Strings(sorted)
		for _, l := range sorted {
			for _, t := range et.templates {
				q := fmt.Sprintf(t, l)
				if !seen[q] {
					seen[q] = true
					qs = append(qs, q)
				}
			}
		}
	}
	return shuffled(qs, seed)
}

func shuffled(qs []string, seed int64) []string {
	out := append([]string(nil), qs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// questionBodies renders the /v1/answer request bodies of a stream.
func questionBodies(questions []string) [][]byte {
	bodies := make([][]byte, len(questions))
	for i, q := range questions {
		b, err := json.Marshal(map[string]string{"question": q})
		if err != nil {
			panic(err) // a string map always marshals
		}
		bodies[i] = b
	}
	return bodies
}

// The update pool: poolBatches batches of poolTriples subjects each.
// Every subject res:Bench_<b>_<t> carries exactly one dbont:benchState
// literal, "a" or "b" flavoured; a request flips one batch from one
// state to the other with DELETE DATA ; INSERT DATA. Terms are all
// Bench_* (the pipeline never links them, so the oracle holds), and
// once both states have been seen the dictionary and the triple count
// stay constant however long the writer runs.
const (
	poolBatches = 64
	poolTriples = 8
)

func benchTriple(batch, t int, state string) string {
	return fmt.Sprintf("<%sBench_%d_%d> <%sbenchState> \"%s-%d-%d\" .",
		rdf.NSRes, batch, t, rdf.NSOnt, state, batch, t)
}

func benchBlock(batch int, state string) string {
	var sb strings.Builder
	for t := 0; t < poolTriples; t++ {
		sb.WriteString(benchTriple(batch, t, state))
		sb.WriteByte(' ')
	}
	return sb.String()
}

// poolSeedBody inserts the "a" state of every batch: the pre-seeded
// contents of the update_mix data dir.
func poolSeedBody() []byte {
	var sb strings.Builder
	sb.WriteString("INSERT DATA { ")
	for b := 0; b < poolBatches; b++ {
		sb.WriteString(benchBlock(b, "a"))
	}
	sb.WriteString("}")
	return []byte(sb.String())
}

// poolBodies is one full cycle of the update stream: every batch
// flipped a→b in the seed's order, then every batch flipped b→a in the
// same order, which returns the KB to the seeded state.
func poolBodies(seed int64) [][]byte {
	order := rand.New(rand.NewSource(seed)).Perm(poolBatches)
	var bodies [][]byte
	for _, flip := range [][2]string{{"a", "b"}, {"b", "a"}} {
		for _, b := range order {
			bodies = append(bodies, []byte(fmt.Sprintf("DELETE DATA { %s} ; INSERT DATA { %s}",
				benchBlock(b, flip[0]), benchBlock(b, flip[1]))))
		}
	}
	return bodies
}
