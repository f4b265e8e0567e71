package testutil

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kb"
	"repro/internal/rdf"
)

// entityTemplates mirrors the cold stream of cmd/qaload (a module of
// its own, so not importable): eight relations by the class of entity
// each is asked about.
var entityTemplates = []struct {
	class     string
	templates []string
}{
	{"Person", []string{"When was %s born?", "When did %s die?", "How tall is %s?", "Who is the spouse of %s?"}},
	{"Book", []string{"Who is the author of %s?", "How many pages does %s have?"}},
	{"City", []string{"What is the population of %s?", "What is the elevation of %s?"}},
}

// EntityQuestions renders every template over every Person, Book and
// City label of k, in label order: the distinct questions of qaload's
// entity_cold workload.
func EntityQuestions(k *kb.KB) []string {
	sn := k.Store.Snapshot()
	seen := map[string]bool{}
	var qs []string
	for _, et := range entityTemplates {
		class, ok := k.ClassByLocal(et.class)
		if !ok {
			panic("testutil: KB has no class " + et.class)
		}
		var labels []string
		for _, e := range sn.Subjects(rdf.Type(), class.Term) {
			labels = append(labels, k.LabelOf(e))
		}
		sort.Strings(labels)
		for _, l := range labels {
			for _, t := range et.templates {
				if q := fmt.Sprintf(t, l); !seen[q] {
					seen[q] = true
					qs = append(qs, q)
				}
			}
		}
	}
	return qs
}

// Labels returns the rdfs:label of every res: entity of k — the
// gazetteer the entity linker indexes — sorted.
func Labels(k *kb.KB) []string {
	var labels []string
	k.Store.Snapshot().ForEachMatch(rdf.Triple{P: rdf.Label()}, func(t rdf.Triple) bool {
		if strings.HasPrefix(t.S.Value, rdf.NSRes) {
			labels = append(labels, t.O.Value)
		}
		return true
	})
	sort.Strings(labels)
	return labels
}
