// Package rdf defines the RDF data model used throughout the question
// answering system: terms (IRIs, literals, blank nodes, variables),
// triples, and the namespace vocabulary of the synthetic DBpedia-like
// knowledge base.
//
// The model deliberately mirrors the fragment of RDF 1.1 that the paper's
// pipeline touches: IRIs for entities, classes and properties; plain,
// language-tagged and datatyped literals for labels and values; variables
// for SPARQL query patterns. Blank nodes are supported for completeness
// but the pipeline never generates them.
//
// It also holds the one reader of RDF term text (scan.go), which every
// syntax scans its terms with, and the one printer (print.go): what
// Term.String prints, every reader reads back as the same term, and its
// full-IRI mode is the N-Triples writer.
package rdf

import (
	"strconv"
	"strings"
)

// Kind discriminates the concrete type of a Term.
type Kind uint8

// Term kinds.
const (
	KindIRI Kind = iota + 1
	KindLiteral
	KindBlank
	KindVar
)

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	case KindVar:
		return "var"
	default:
		return "invalid"
	}
}

// Term is a single RDF term. Terms are immutable value types; two terms
// are equal iff all their fields are equal, so Term is usable as a map key.
type Term struct {
	// Kind discriminates the term type. The zero Term has kind 0 and is
	// invalid; IsZero reports that state.
	Kind Kind
	// Value holds the IRI string, the literal lexical form, the blank
	// node label, or the variable name (without the leading '?').
	Value string
	// Datatype holds the datatype IRI for typed literals. Empty for
	// plain literals and all non-literal terms.
	Datatype string
	// Lang holds the language tag for language-tagged literals.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewLiteral returns a plain (xsd:string) literal term.
func NewLiteral(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// NewDate returns an xsd:date literal from an ISO-8601 lexical form.
func NewDate(iso string) Term { return NewTypedLiteral(iso, XSDDate) }

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewVar returns a query variable term. The name must not include the
// leading '?'.
func NewVar(name string) Term { return Term{Kind: KindVar, Value: name} }

// IsZero reports whether t is the zero Term (no kind).
func (t Term) IsZero() bool { return t.Kind == 0 }

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsVar reports whether t is a query variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsNumeric reports whether t is a literal with a numeric XSD datatype.
func (t Term) IsNumeric() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt, XSDLong,
		XSDNonNegativeInteger, XSDPositiveInteger:
		return true
	}
	// Plain literals that parse as numbers are treated as numeric; the
	// DBpedia raw infobox extraction the paper queries is similarly lax.
	if t.Datatype == "" && t.Lang == "" {
		_, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
		return err == nil && t.Value != ""
	}
	return false
}

// IsDate reports whether t is a literal with a date-like XSD datatype.
func (t Term) IsDate() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDDate, XSDDateTime, XSDGYear, XSDGYearMonth:
		return true
	}
	return false
}

// Float returns the numeric value of a numeric literal and whether the
// conversion succeeded.
func (t Term) Float() (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	return f, err == nil
}

// LocalName returns the fragment of an IRI after the last '/' or '#'.
// For non-IRI terms it returns the term value unchanged.
func (t Term) LocalName() string {
	if t.Kind != KindIRI {
		return t.Value
	}
	v := t.Value
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] == '/' || v[i] == '#' {
			return v[i+1:]
		}
	}
	return v
}

// Compare orders terms deterministically: by kind, then value, then
// datatype, then language. It returns -1, 0 or +1.
func (t Term) Compare(u Term) int {
	switch {
	case t.Kind != u.Kind:
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	case t.Value != u.Value:
		if t.Value < u.Value {
			return -1
		}
		return 1
	case t.Datatype != u.Datatype:
		if t.Datatype < u.Datatype {
			return -1
		}
		return 1
	case t.Lang != u.Lang:
		if t.Lang < u.Lang {
			return -1
		}
		return 1
	}
	return 0
}

// Triple is a single RDF statement. Any position may hold a variable when
// the triple is used as a query pattern.
type Triple struct {
	S, P, O Term
}

// IsGround reports whether the triple contains no variables.
func (t Triple) IsGround() bool {
	return !t.S.IsVar() && !t.P.IsVar() && !t.O.IsVar()
}

// Vars returns the distinct variable names appearing in the triple, in
// subject-predicate-object order.
func (t Triple) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, term := range []Term{t.S, t.P, t.O} {
		if term.IsVar() && !seen[term.Value] {
			seen[term.Value] = true
			out = append(out, term.Value)
		}
	}
	return out
}
