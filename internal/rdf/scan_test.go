package rdf

import (
	"strings"
	"testing"
)

// TestScanIRIRef: UCHARs decode, and each character IRIREF refuses raw
// is an error at its offset.
func TestScanIRIRef(t *testing.T) {
	for _, c := range []struct {
		src, want string
		n         int
	}{
		{`<http://e/a> .`, "http://e/a", 12},
		{`<http://e/\u0041>`, "http://e/A", 17},
		{`<http://e/\U0001F600#x>`, "http://e/😀#x", 23},
		{`<http://e/\u007Bo\u007D>`, "http://e/{o}", 24},
		{`<http://e/with\u0020space>`, "http://e/with space", 26},
		{`<http://e/é#frag>`, "http://e/é#frag", 18},
	} {
		iri, n, err := ScanIRIRef(c.src)
		if err != nil || iri != c.want || n != c.n {
			t.Errorf("%s: %q, %d, %v; want %q, %d", c.src, iri, n, err, c.want, c.n)
		}
	}
	for _, c := range []struct {
		src string
		n   int
	}{
		{`<>`, 1}, {`<http://e/a b>`, 11}, {"<http://e/a\nb>", 11}, {`<http://e/<a>`, 10},
		{`<http://e/"a">`, 10}, {`<http://e/{a}>`, 10}, {`<http://e/}>`, 10}, {`<http://e/a|b>`, 11},
		{`<http://e/a^b>`, 11}, {"<http://e/a`b>", 11}, {`<http://e/a\nb>`, 11}, {`<http://e/\u00G1>`, 10},
		{`<http://e/\uD800>`, 10}, {`<http://e/a`, 11},
	} {
		if iri, n, err := ScanIRIRef(c.src); err == nil || n != c.n {
			t.Errorf("%s: %q, %d, %v; want an error at %d", c.src, iri, n, err, c.n)
		}
	}
}

// TestScanPrefixedName: PN_PREFIX and PN_LOCAL, with PLX escapes
// decoded and %-escapes kept, a '.' inside a name but not at its end.
func TestScanPrefixedName(t *testing.T) {
	for _, c := range []struct {
		src, prefix, local string
		n                  int
	}{
		{"res:Snow .", "res", "Snow", 8},
		{"res: <x>", "res", "", 4},
		{":a", "", "a", 2},
		{"res:H._G._Wells .", "res", "H._G._Wells", 15},
		{"res:Washington_D.C. ", "res", "Washington_D.C", 18},
		{`res:Washington_D.C\. `, "res", "Washington_D.C.", 20},
		{`res:Snow_\(novel\)`, "res", "Snow_(novel)", 18},
		{`res:it\'s`, "res", "it's", 9},
		{"res:a%20b", "res", "a%20b", 9},
		{"res:1961", "res", "1961", 8},
		{"res:a:b", "res", "a:b", 7},
		{"res:a-b·c", "res", "a-b·c", 10},
		{"ex.v2:a", "ex.v2", "a", 7},
		{"dbont:Écrivain", "dbont", "Écrivain", 15},
		{"res:Snow_(novel)", "res", "Snow_", 9},
		{"res:it's", "res", "it", 6},
		{"res:-a", "res", "", 4},
		{"res:a..b", "res", "a..b", 8},
		{"res:a.", "res", "a", 5},
	} {
		prefix, local, n, err := ScanPrefixedName(c.src)
		if err != nil || prefix != c.prefix || local != c.local || n != c.n {
			t.Errorf("%s: %q, %q, %d, %v; want %q, %q, %d", c.src, prefix, local, n, err, c.prefix, c.local, c.n)
		}
	}
	for _, src := range []string{"res", "1res:a", "_x:a", "-:a", ".a:b", "a. :b", "true"} {
		if _, _, n, err := ScanPrefixedName(src); n != 0 || err != nil {
			t.Errorf("%s: %d, %v; want no prefixed name", src, n, err)
		}
	}
	for _, src := range []string{`res:a\q`, `res:a\`, "res:a%2", "res:a%zz"} {
		if _, _, _, err := ScanPrefixedName(src); err == nil {
			t.Errorf("%s: no error", src)
		}
	}
}

// TestScanString: both quote styles, short and long, escapes decoded;
// a raw line break ends no short string.
func TestScanString(t *testing.T) {
	for _, c := range []struct {
		src, want string
		n         int
	}{
		{`"x" .`, "x", 3}, {`'x'`, "x", 3}, {`""`, "", 2}, {`""""""`, "", 6},
		{`"""a "b" ""c"" d"""`, `a "b" ""c"" d`, 19}, {"'''a\nb'''", "a\nb", 9},
		{`"caf\u00e9\t"`, "café\t", 13}, {`'it\'s'`, "it's", 7}, {`"""x""""`, "x", 7},
	} {
		lex, n, err := ScanString(c.src)
		if err != nil || lex != c.want || n != c.n {
			t.Errorf("%s: %q, %d, %v; want %q, %d", c.src, lex, n, err, c.want, c.n)
		}
	}
	for _, c := range []struct {
		src string
		n   int
	}{
		{`"x`, 2}, {"\"a\nb\"", 2}, {"\"a\rb\"", 2}, {`"\q"`, 1}, {`"""x""`, 6}, {"'''a\n\\u12'''", 5},
	} {
		if lex, n, err := ScanString(c.src); err == nil || n != c.n {
			t.Errorf("%q: %q, %d, %v; want an error at %d", c.src, lex, n, err, c.n)
		}
	}
}

// TestScanLangTag: [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*, and nothing else.
func TestScanLangTag(t *testing.T) {
	for _, c := range []struct {
		src, want string
		n         int
	}{
		{"@en .", "en", 3}, {"@en-GB", "en-GB", 6}, {"@de-CH-1996 ", "de-CH-1996", 11}, {"@x,", "x", 2},
	} {
		tag, n, err := ScanLangTag(c.src)
		if err != nil || tag != c.want || n != c.n {
			t.Errorf("%s: %q, %d, %v; want %q, %d", c.src, tag, n, err, c.want, c.n)
		}
	}
	for _, src := range []string{"@", "@ en", "@en_US", "@en-", "@en-.", "@1en", "@en1", "@ené"} {
		if tag, n, err := ScanLangTag(src); err == nil {
			t.Errorf("%s: %q, %d; want an error", src, tag, n)
		}
	}
}

// TestScanNumber: the datatype follows the form, as in Turtle and
// SPARQL: a '.' and digits make a decimal, only an exponent a double.
func TestScanNumber(t *testing.T) {
	for _, c := range []struct {
		src, lex, dt string
		n            int
	}{
		{"42 .", "42", XSDInteger, 2}, {"-2", "-2", XSDInteger, 2}, {"+7", "+7", XSDInteger, 2},
		{"1.5", "1.5", XSDDecimal, 3}, {".5", ".5", XSDDecimal, 2}, {"+4.5", "+4.5", XSDDecimal, 4},
		{"-.5", "-.5", XSDDecimal, 3}, {"1e3", "1e3", XSDDouble, 3}, {"1.5E-3", "1.5E-3", XSDDouble, 6},
		{"1.e5", "1.e5", XSDDouble, 4}, {".5e+1", ".5e+1", XSDDouble, 5},
		{"1.", "1", XSDInteger, 1}, {"1. ", "1", XSDInteger, 1}, {"1.0e", "1.0", XSDDecimal, 3},
		{"1e", "1", XSDInteger, 1}, {"1.e", "1", XSDInteger, 1}, {"12.}", "12", XSDInteger, 2},
	} {
		term, n, err := ScanNumber(c.src)
		if err != nil || term != NewTypedLiteral(c.lex, c.dt) || n != c.n {
			t.Errorf("%s: %v, %d, %v; want %q^^%s, %d", c.src, term, n, err, c.lex, c.dt, c.n)
		}
	}
	for _, src := range []string{"-", "+", ".", "-.", "+e5", ".e5"} {
		if term, _, err := ScanNumber(src); err == nil {
			t.Errorf("%s: %v; want an error", src, term)
		}
	}
}

// TestScanBoolean: true and false, but not the start of a longer name.
func TestScanBoolean(t *testing.T) {
	for src, want := range map[string]int{
		"true": 4, "false .": 5, "true,": 4, "true)": 4, "true.": 4, "true. x:y": 4, "true.x:y": 0,
		"truth": 0, "true_x": 0, "true-x": 0, "true:x": 0, "trueé": 0, "TRUE": 0, "fals": 0,
	} {
		term, n := ScanBoolean(src)
		if n != want || n > 0 && term != NewTypedLiteral(src[:n], XSDBoolean) {
			t.Errorf("%s: %v, %d; want %d", src, term, n, want)
		}
	}
}

// TestScanBlankNodeLabel: a label may start with a digit and hold '-'
// and '.', but not end with '.'.
func TestScanBlankNodeLabel(t *testing.T) {
	for _, c := range []struct {
		src, want string
		n         int
	}{
		{"_:b0 ", "b0", 4}, {"_:0", "0", 3}, {"_:b-1", "b-1", 5}, {"_:a.b.", "a.b", 5}, {"_:_x", "_x", 4},
	} {
		label, n, err := ScanBlankNodeLabel(c.src)
		if err != nil || label != c.want || n != c.n {
			t.Errorf("%s: %q, %d, %v; want %q, %d", c.src, label, n, err, c.want, c.n)
		}
	}
	for _, src := range []string{"_:", "_: a", "_:-a", "_:.a"} {
		if label, n, err := ScanBlankNodeLabel(src); err == nil {
			t.Errorf("%s: %q, %d; want an error", src, label, n)
		}
	}
}

// TestScanNoUTF8: a byte that is not UTF-8 is no name character.
func TestScanNoUTF8(t *testing.T) {
	if _, local, n, _ := ScanPrefixedName("res:a\xffb"); local != "a" || n != 5 {
		t.Errorf("local = %q, n = %d; want \"a\", 5", local, n)
	}
	if _, _, err := ScanBlankNodeLabel("_:\xff"); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("blank label of a non-UTF-8 byte: %v", err)
	}
}
