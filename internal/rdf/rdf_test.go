package rdf

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	cases := []struct {
		name string
		term Term
		kind Kind
	}{
		{"iri", NewIRI("http://example.org/a"), KindIRI},
		{"plain literal", NewLiteral("hello"), KindLiteral},
		{"lang literal", NewLangLiteral("hello", "en"), KindLiteral},
		{"typed literal", NewTypedLiteral("5", XSDInteger), KindLiteral},
		{"blank", NewBlank("b0"), KindBlank},
		{"var", NewVar("x"), KindVar},
	}
	for _, c := range cases {
		if c.term.Kind != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.name, c.term.Kind, c.kind)
		}
		if c.term.IsZero() {
			t.Errorf("%s: IsZero() = true for constructed term", c.name)
		}
	}
	var zero Term
	if !zero.IsZero() {
		t.Error("zero Term should report IsZero")
	}
}

func TestKindPredicates(t *testing.T) {
	if !NewIRI("x").IsIRI() || NewIRI("x").Kind == KindLiteral {
		t.Error("IRI predicates wrong")
	}
	if NewLiteral("x").Kind != KindLiteral || NewLiteral("x").IsVar() {
		t.Error("literal predicates wrong")
	}
	if !NewVar("x").IsVar() || NewVar("x").IsBlank() {
		t.Error("var predicates wrong")
	}
	if !NewBlank("x").IsBlank() || NewBlank("x").IsIRI() {
		t.Error("blank predicates wrong")
	}
}

func TestIsNumeric(t *testing.T) {
	cases := []struct {
		term Term
		want bool
	}{
		{NewInteger(42), true},
		{NewDouble(1.98), true},
		{NewTypedLiteral("3.14", XSDDecimal), true},
		{NewLiteral("59464644"), true}, // plain numeric, DBpedia-raw style
		{NewLiteral("not a number"), false},
		{NewLangLiteral("42", "en"), false},
		{NewIRI("http://example.org/42"), false},
		{NewDate("1865-04-15"), false},
		{NewLiteral(""), false},
	}
	for _, c := range cases {
		if got := c.term.IsNumeric(); got != c.want {
			t.Errorf("IsNumeric(%v) = %v, want %v", c.term, got, c.want)
		}
	}
}

// TestValueKindPartition: every term has exactly one value kind, and it
// agrees with IsIRI, IsBlank and IsNumeric.
func TestValueKindPartition(t *testing.T) {
	terms := []Term{
		NewIRI("http://example.org/42"), NewBlank("b0"), NewDate("1865-04-15"),
		NewTypedLiteral("1865", XSDGYear), NewTypedLiteral("1865-04", XSDGYearMonth),
		NewTypedLiteral("1865-04-15T00:00:00", XSDDateTime), NewInteger(42), NewDouble(1.5),
		NewLiteral(" 42 "), NewLiteral("1865-04-15"), NewLiteral("Orhan Pamuk"), NewLangLiteral("42", "en"),
		NewTypedLiteral("x", NSXSD+"string"), NewVar("x"), {},
	}
	want := []ValueKind{ValueIRI, ValueBlank, ValueDate, ValueDate, ValueDate, ValueDate, ValueNumeric,
		ValueNumeric, ValueNumeric, ValueOther, ValueOther, ValueOther, ValueOther, ValueOther, ValueOther}
	for i, term := range terms {
		k := term.ValueKind()
		if k != want[i] || k >= NumValueKinds {
			t.Errorf("%#v: kind %v, want %v", term, k, want[i])
		}
		if term.IsIRI() != (k == ValueIRI) || term.IsBlank() != (k == ValueBlank) ||
			term.IsNumeric() != (k == ValueNumeric) {
			t.Errorf("%#v: kind %v disagrees with the Is predicates", term, k)
		}
	}
}

// TestMayParseFloatKeepsEveryNumber: the byte filter in front of
// strconv.ParseFloat refuses no string that parses — every string of up
// to three printable ASCII bytes, and the special and hexadecimal forms.
func TestMayParseFloatKeepsEveryNumber(t *testing.T) {
	check := func(s string) {
		if _, err := strconv.ParseFloat(s, 64); err == nil && !mayParseFloat(s) {
			t.Errorf("mayParseFloat(%q) = false, but it parses", s)
		}
	}
	for _, s := range []string{"+Inf", "-infinity", "NaN", "0x1p-2", "0X1.8P+1", "1e5", "-.5e-3", "0x_1p0", "1_0"} {
		check(s)
	}
	b := make([]byte, 0, 3)
	var walk func()
	walk = func() {
		check(string(b))
		if len(b) == cap(b) {
			return
		}
		for c := byte(' '); c <= '~'; c++ {
			b = append(b, c)
			walk()
			b = b[:len(b)-1]
		}
	}
	walk()
}

func TestIsDate(t *testing.T) {
	if NewDate("1865-04-15").ValueKind() != ValueDate {
		t.Error("xsd:date literal should be a date")
	}
	if NewTypedLiteral("1865", XSDGYear).ValueKind() != ValueDate {
		t.Error("xsd:gYear literal should be a date")
	}
	if NewLiteral("1865-04-15").ValueKind() == ValueDate {
		t.Error("plain literal should not be a date")
	}
	if NewInteger(1865).ValueKind() == ValueDate {
		t.Error("integer should not be a date")
	}
}

func TestFloat(t *testing.T) {
	if f, ok := NewDouble(1.98).Float(); !ok || f != 1.98 {
		t.Errorf("Float() = %v, %v; want 1.98, true", f, ok)
	}
	if _, ok := NewLiteral("abc").Float(); ok {
		t.Error("Float() on non-numeric should fail")
	}
	if f, ok := NewLiteral(" 42 ").Float(); !ok || f != 42 {
		t.Errorf("Float() should trim spaces; got %v, %v", f, ok)
	}
	if _, ok := NewIRI("x").Float(); ok {
		t.Error("Float() on IRI should fail")
	}
}

func TestLocalName(t *testing.T) {
	cases := []struct{ iri, want string }{
		{NSOnt + "writer", "writer"},
		{NSRDF + "type", "type"},
		{"http://example.org/a/b/c", "c"},
		{"noseparator", "noseparator"},
	}
	for _, c := range cases {
		if got := NewIRI(c.iri).LocalName(); got != c.want {
			t.Errorf("LocalName(%q) = %q, want %q", c.iri, got, c.want)
		}
	}
	if got := NewLiteral("plain").LocalName(); got != "plain" {
		t.Errorf("LocalName on literal = %q, want value", got)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Ont("writer"), "dbont:writer"},
		{Res("Orhan_Pamuk"), "res:Orhan_Pamuk"},
		{Type(), "rdf:type"},
		{NewIRI("http://unregistered.example/x"), "<http://unregistered.example/x>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewInteger(5), `"5"^^xsd:integer`},
		{NewBlank("b1"), "_:b1"},
		{NewVar("x"), "?x"},
		// PN_LOCAL escapes, or the full IRI when a local name cannot be
		// written; UCHARs in an IRIREF.
		{Res("Snow_(novel)"), `res:Snow_\(novel\)`},
		{Res("Washington,_D.C."), `res:Washington\,_D.C\.`},
		{Res("it's"), `res:it\'s`},
		{Res("-1.5%41%"), `res:\-1.5%41\%`},
		{Res("Café_Zürich"), "res:Café_Zürich"},
		{Res("a b"), `<http://dbpedia.org/resource/a\u0020b>`},
		{Res("\u00B7x"), "<http://dbpedia.org/resource/\u00B7x>"},
		{NewIRI("http://e/{o}|<\\>"), `<http://e/\u007Bo\u007D\u007C\u003C\u005C\u003E>`},
		// ECHAR and UCHAR in literals, never Go's \x or \a.
		{NewLiteral("q\"b\\n\nr\rt\tb\bf\f\a\x7f é\xff"), `"q\"b\\n\nr\rt\tb\bf\f\u0007\u007F é` + "\xff" + `"`},
		{NewTypedLiteral("x", "http://e/dt"), `"x"^^<http://e/dt>`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{S: NewVar("x"), P: Type(), O: Ont("Book")}
	want := "?x rdf:type dbont:Book ."
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
}

func TestTripleGroundAndVars(t *testing.T) {
	ground := Triple{S: Res("A"), P: Ont("writer"), O: Res("B")}
	if !ground.IsGround() {
		t.Error("ground triple misreported")
	}
	if vs := ground.Vars(); len(vs) != 0 {
		t.Errorf("ground triple vars = %v", vs)
	}
	q := Triple{S: NewVar("x"), P: Ont("writer"), O: NewVar("x")}
	if q.IsGround() {
		t.Error("pattern with vars reported ground")
	}
	if vs := q.Vars(); len(vs) != 1 || vs[0] != "x" {
		t.Errorf("Vars() = %v, want [x] (deduplicated)", vs)
	}
	q2 := Triple{S: NewVar("s"), P: NewVar("p"), O: NewVar("o")}
	if vs := q2.Vars(); len(vs) != 3 || vs[0] != "s" || vs[1] != "p" || vs[2] != "o" {
		t.Errorf("Vars() = %v, want [s p o] in SPO order", vs)
	}
}

func TestShortenExpandRoundTrip(t *testing.T) {
	for _, local := range []string{"writer", "Book", "birthPlace"} {
		iri := NSOnt + local
		prefix, l, ok := shorten(iri)
		if !ok {
			t.Fatalf("shorten(%q) failed", iri)
		}
		back, ok := Expand(prefix + ":" + l)
		if !ok || back != iri {
			t.Errorf("Expand(shorten(%q)) = %q, %v", iri, back, ok)
		}
	}
	if _, _, ok := shorten("http://unknown.example/x"); ok {
		t.Error("shorten should fail for unregistered namespaces")
	}
	if _, ok := Expand("nocolon"); ok {
		t.Error("Expand should fail without colon")
	}
	if _, ok := Expand("unknown:x"); ok {
		t.Error("Expand should fail for unknown prefix")
	}
}

func TestShortenRejectsCompoundLocal(t *testing.T) {
	// A resource IRI with a slash in the "local" part must not shorten.
	for _, local := range []string{"a/b", "a#b", "a:b", ""} {
		if p, l, ok := shorten(NSRes + local); ok {
			t.Errorf("shorten returned %s:%s for local name %q", p, l, local)
		}
		if got, want := Res(local).String(), "<"+NSRes+local+">"; got != want {
			t.Errorf("Res(%q).String() = %s, want %s", local, got, want)
		}
	}
}

// TestPrefixesSorted holds the fixed prefix table to the order
// shortening relies on — longest namespace first, ties by prefix — and
// checks that Expand finds every binding.
func TestPrefixesSorted(t *testing.T) {
	for i := 1; i < len(prefixes); i++ {
		a, b := prefixes[i-1], prefixes[i]
		if len(a.ns) < len(b.ns) || len(a.ns) == len(b.ns) && a.prefix >= b.prefix {
			t.Errorf("prefixes[%d] %s: <%s> before prefixes[%d] %s: <%s>", i-1, a.prefix, a.ns, i, b.prefix, b.ns)
		}
	}
	for _, e := range prefixes {
		if got, ok := Expand(e.prefix + ":x"); !ok || got != e.ns+"x" {
			t.Errorf("Expand(%s:x) = %q, %v", e.prefix, got, ok)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	a := NewIRI("a")
	b := NewIRI("b")
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare by value broken")
	}
	if NewIRI("x").Compare(NewLiteral("x")) != -1 {
		t.Error("IRI should sort before literal (kind order)")
	}
	if NewLiteral("x").Compare(NewTypedLiteral("x", XSDInteger)) != -1 {
		t.Error("plain literal should sort before typed (datatype order)")
	}
	if NewLangLiteral("x", "de").Compare(NewLangLiteral("x", "en")) != -1 {
		t.Error("lang ordering broken")
	}
}

// Property: Compare is antisymmetric and consistent with equality.
func TestCompareProperties(t *testing.T) {
	gen := func(v, d, l string, k uint8) Term {
		return Term{Kind: Kind(k%4 + 1), Value: v, Datatype: d, Lang: l}
	}
	prop := func(v1, d1, l1 string, k1 uint8, v2, d2, l2 string, k2 uint8) bool {
		t1 := gen(v1, d1, l1, k1)
		t2 := gen(v2, d2, l2, k2)
		c12, c21 := t1.Compare(t2), t2.Compare(t1)
		if c12 != -c21 {
			return false
		}
		if (c12 == 0) != (t1 == t2) {
			return false
		}
		return t1.Compare(t1) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVocabConstructors(t *testing.T) {
	if Ont("writer").Value != NSOnt+"writer" {
		t.Error("Ont constructor wrong")
	}
	if Res("X").Value != NSRes+"X" {
		t.Error("Res constructor wrong")
	}
	if Type().Value != IRIType || Label().Value != IRILabel || SubClassOf().Value != IRISubClassOf {
		t.Error("well-known terms wrong")
	}
}
