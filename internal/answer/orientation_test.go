package answer

import (
	"context"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/propmap"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplex"
)

// Coverage for the orientation and type-checking internals that the
// end-to-end tests reach only partially.

// orientationPatterns renders the orientations of p between subj and
// obj as the triple patterns §2.3 executes.
func orientationPatterns(sess *sparql.Session, p kb.Property, subj, obj rdf.Term) []rdf.Triple {
	var pats []rdf.Triple
	ty := typing{sess: sess}
	for _, o := range ty.orientations(nil, &p, ty.slot(subj), ty.slot(obj)) {
		mt := propmap.MappedTriple{Predicates: []propmap.PropCandidate{{Property: &p}}}
		mt.Subject, mt.Object = subj, obj
		if subj.IsVar() {
			mt.Subject, mt.SubjectVar = rdf.Term{}, subj.Value
		}
		if obj.IsVar() {
			mt.Object, mt.ObjectVar = rdf.Term{}, obj.Value
		}
		pats = append(pats, alternative{orient: o}.pattern(&mt))
	}
	return pats
}

func TestOrientationsDataProperty(t *testing.T) {
	k, _ := setup(t)
	sess := sparql.NewSnapshotSession(k.Store.Snapshot())
	height, _ := k.PropertyByLocal("height")

	// Entity subject, var object: the natural direction.
	pats := orientationPatterns(sess, height, rdf.Res("Michael_Jordan"), rdf.NewVar("x"))
	if len(pats) != 1 || pats[0].S != rdf.Res("Michael_Jordan") {
		t.Errorf("natural data orientation = %v", pats)
	}
	// Var subject, entity object: flipped so the literal stays on the
	// object side.
	pats2 := orientationPatterns(sess, height, rdf.NewVar("x"), rdf.Res("Michael_Jordan"))
	if len(pats2) != 1 || pats2[0].S != rdf.Res("Michael_Jordan") || !pats2[0].O.IsVar() {
		t.Errorf("flipped data orientation = %v", pats2)
	}
	// Both vars.
	pats3 := orientationPatterns(sess, height, rdf.NewVar("a"), rdf.NewVar("b"))
	if len(pats3) != 1 {
		t.Errorf("var-var data orientation = %v", pats3)
	}
	// Domain-violating subject produces nothing.
	pats4 := orientationPatterns(sess, height, rdf.Res("Ankara"), rdf.NewVar("x"))
	if len(pats4) != 0 {
		t.Errorf("domain violation accepted: %v", pats4)
	}
}

func TestOrientationsObjectProperty(t *testing.T) {
	k, _ := setup(t)
	sess := sparql.NewSnapshotSession(k.Store.Snapshot())
	spouse, _ := k.PropertyByLocal("spouse")

	// Person-Person property: both orientations type-check.
	pats := orientationPatterns(sess, spouse, rdf.NewVar("x"), rdf.Res("Barack_Obama"))
	if len(pats) != 2 {
		t.Errorf("spouse orientations = %v, want both", pats)
	}
	// capital: Country→City; with a City entity only one direction fits.
	capital, _ := k.PropertyByLocal("capital")
	pats2 := orientationPatterns(sess, capital, rdf.NewVar("x"), rdf.Res("Ankara"))
	if len(pats2) != 1 || pats2[0].O != rdf.Res("Ankara") {
		t.Errorf("capital orientations = %v, want Turkey-side var only", pats2)
	}
	// Entity typable in neither position: both orientations are kept as
	// a fallback (the executor discards empty ones).
	pats3 := orientationPatterns(sess, capital, rdf.NewVar("x"), rdf.Res("Michael_Jordan"))
	if len(pats3) != 2 {
		t.Errorf("fallback orientations = %v, want both", pats3)
	}
}

func TestTypeMatchesTable1(t *testing.T) {
	k, _ := setup(t)
	sess := sparql.NewSnapshotSession(k.Store.Snapshot())
	ty := typing{sess: sess}
	cases := []struct {
		term rdf.Term
		kind triplex.ExpectedKind
		want bool
	}{
		{rdf.Res("Barack_Obama"), triplex.ExpectPerson, true},
		{rdf.Res("Intel"), triplex.ExpectPerson, true}, // Company counts
		{rdf.Res("Ankara"), triplex.ExpectPerson, false},
		{rdf.Res("Ankara"), triplex.ExpectPlace, true},
		{rdf.Res("Barack_Obama"), triplex.ExpectPlace, false},
		{rdf.NewDate("1986-02-11"), triplex.ExpectDate, true},
		{rdf.NewLiteral("hello"), triplex.ExpectDate, false},
		{rdf.NewInteger(5), triplex.ExpectNumeric, true},
		{rdf.Res("Ankara"), triplex.ExpectNumeric, false},
		{rdf.Res("Anything"), triplex.ExpectAny, true},
		{rdf.NewInteger(5), triplex.ExpectClass, true},
		{rdf.NewInteger(5), triplex.ExpectPerson, false}, // literal is no person
	}
	for _, c := range cases {
		filter := ty.table1(c.kind)
		if got := filter.admits(sess, c.term, sess.Lookup(c.term)); got != c.want {
			t.Errorf("admits(%v) under %v = %v, want %v", c.term, c.kind, got, c.want)
		}
	}
}

func TestInstanceOfLoose(t *testing.T) {
	k, _ := setup(t)
	ty := typing{sess: sparql.NewSnapshotSession(k.Store.Snapshot())}
	ankara := ty.slot(rdf.Res("Ankara"))
	// owl:Thing and zero constraints always pass.
	if !ty.instanceOfLoose(ankara, rdf.Term{}) {
		t.Error("zero class should pass")
	}
	if !ty.instanceOfLoose(ankara, rdf.NewIRI(rdf.IRIThing)) {
		t.Error("owl:Thing should pass")
	}
	// Non-dbont constraint passes (xsd types on data properties).
	if !ty.instanceOfLoose(ankara, rdf.NewIRI(rdf.XSDDouble)) {
		t.Error("non-ontology range should pass")
	}
	// Literals pass (type checking handles them separately).
	if !ty.instanceOfLoose(ty.slot(rdf.NewInteger(3)), rdf.Ont("Person")) {
		t.Error("literal should pass the loose check")
	}
	if ty.instanceOfLoose(ankara, rdf.Ont("Person")) {
		t.Error("Ankara is not a Person")
	}
}

func TestBooleanExtensionFalsePath(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, Config{Extensions: true, MaxQueries: 64})
	ext, err := triplex.ExtractOpts("Was Abraham Lincoln born in Ankara?", triplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mpr.Map(ext)
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract(context.Background(), ex, mp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answered() || res.Answers[0].Value != "false" {
		t.Errorf("answers = %v, want false", res.Answers)
	}
	if !strings.HasPrefix(res.Winning.SPARQL, "ASK") {
		t.Errorf("winning = %q", res.Winning.SPARQL)
	}
}

func TestAggregationSkipsKnownEmpty(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, Config{Extensions: true, MaxQueries: 64})
	// "How many children does Abraham Lincoln have?" — the child query
	// is empty; aggregation must not answer 0. (The WordNet expansion
	// may reach spouse, which has one fact; accept either an unanswered
	// result or a positive count, never zero.)
	ext, err := triplex.ExtractOpts("How many children does Abraham Lincoln have?", triplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mpr.Map(ext)
	if err != nil {
		t.Skip("mapping unavailable:", err)
	}
	res, err := extract(context.Background(), ex, mp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answered() {
		if f, _ := res.Answers[0].Float(); f <= 0 {
			t.Errorf("aggregation answered a non-positive count: %v", res.Answers)
		}
	}
}

var _ = kb.DefaultConfig // keep the import used if setup changes
