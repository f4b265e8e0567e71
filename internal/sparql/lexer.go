// Package sparql implements the SPARQL subset the question answering
// pipeline emits and the evaluation harness's gold queries use, executed
// against the internal triple store. The subset, in full:
//
//   - SELECT [DISTINCT] with variables, '*' or (COUNT([DISTINCT] ?v|*)
//     AS ?n), then WHERE; or ASK [WHERE]; after optional PREFIX
//     declarations;
//   - a WHERE group that is one basic graph pattern: triple patterns of
//     variables, IRIs, prefixed names, literals, numbers, booleans and
//     blank node labels, with 'a' and the ';' and ',' lists;
//   - FILTER(operand relop operand) in the group, an operand being a
//     variable or a constant term and relop one of = != < > <= >=;
//     several FILTERs are their conjunction;
//   - ORDER BY keys ?v, ASC(operand) or DESC(operand), then LIMIT and
//     OFFSET.
//
// Everything else is refused with a *SyntaxError that names it:
// OPTIONAL, UNION and nested groups, the 17 FILTER builtins (BOUND,
// STR, REGEX, …), the logical, negation and arithmetic operators,
// nested expressions, REDUCED and BASE.
//
// The engine is three stages: a lexer (this file), a recursive-descent
// parser producing a small algebra (parser.go, ast.go), and an executor
// that performs selectivity-ordered index nested-loop joins (eval.go).
// The lexer reads every RDF term — IRIs, prefixed names, strings,
// numbers, language tags, booleans and blank node labels — with the
// term reader that Turtle, N-Triples and UPDATE blocks share
// (rdf.ScanIRIRef and its siblings), so a term reads the same in a
// query as in the data; it scans only variables, keywords and
// punctuation itself.
//
// Execution is two-layered. The executor compiles each query to a
// variable->column layout and runs entirely in the store's dictionary-ID
// space over flat binding rows, materialising rdf.Term values only when
// projecting the final Result (late materialization; see eval.go). The
// original term-space evaluator is retained in
// termspace_reference_test.go as ExecuteTermSpace — the
// differential-testing oracle and the benchmark baseline the ID engine
// is measured against.
package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokVar     // ?name or $name
	tokIRI     // <...>
	tokPName   // prefix:local or prefix: (in PREFIX decls)
	tokString  // "..." or '...'
	tokNumber  // integer, decimal or double, optionally signed
	tokBoolean // true / false
	tokLangTag // @en
	tokPunct   // { } ( ) . , ; * = != < > <= >= ^^ a
	tokBlank   // _:label
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for errors
	line int
	// datatype is the XSD type of a tokNumber or tokBoolean literal,
	// whose lexical form is text.
	datatype string
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError reports a lexing or parsing failure with position info.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: line %d: %s", e.Line, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// keywords maps each keyword the lexer knows to whether the subset
// supports it. The unsupported ones — BASE, REDUCED, the group
// patterns and the 17 FILTER builtins (ISURI is ISIRI's alias) — the
// lexer refuses by name.
var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "WHERE": true, "PREFIX": true,
	"DISTINCT": true, "FILTER": true, "ORDER": true, "BY": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"COUNT": true, "AS": true,

	"BASE": false, "REDUCED": false,
	"OPTIONAL": false, "UNION": false, "REGEX": false, "BOUND": false,
	"STR": false, "LANG": false, "DATATYPE": false, "ISIRI": false,
	"ISURI": false, "ISLITERAL": false, "ISBLANK": false, "ISNUMERIC": false,
	"CONTAINS": false, "STRSTARTS": false, "STRENDS": false, "LCASE": false,
	"UCASE": false, "STRLEN": false, "LANGMATCHES": false, "SAMETERM": false,
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// scanned turns a term reader's error at the current position, whose
// fault lies n bytes on, into a SyntaxError on the fault's line.
func (l *lexer) scanned(n int, err error) error {
	return &SyntaxError{Line: l.line + strings.Count(l.src[l.pos:l.pos+n], "\n"), Msg: err.Error()}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	mk := func(kind tokenKind, text string) token {
		return token{kind: kind, text: text, pos: start, line: l.line}
	}
	if l.pos >= len(l.src) {
		return mk(tokEOF, ""), nil
	}
	s := l.src[l.pos:]
	c := s[0]
	switch {
	case c == '?' || c == '$':
		l.pos++
		name := l.consumeName()
		if name == "" {
			return token{}, l.errf("empty variable name")
		}
		return mk(tokVar, name), nil

	case c == '<':
		// An IRIREF, or else the less-than operator: an IRIREF holds no
		// raw space, quote, brace, '|', '^', '`' or '<' before its '>'.
		if iri, n, err := rdf.ScanIRIRef(s); err == nil {
			l.pos += n
			return mk(tokIRI, iri), nil
		}
		if len(s) > 1 && s[1] == '=' {
			l.pos += 2
			return mk(tokPunct, "<="), nil
		}
		l.pos++
		return mk(tokPunct, "<"), nil

	case c == '"' || c == '\'':
		lex, n, err := rdf.ScanString(s)
		if err != nil {
			return token{}, l.scanned(n, err)
		}
		tok := mk(tokString, lex)
		l.line += strings.Count(s[:n], "\n")
		l.pos += n
		return tok, nil

	case c == '@':
		tag, n, err := rdf.ScanLangTag(s)
		if err != nil {
			return token{}, l.scanned(n, err)
		}
		l.pos += n
		return mk(tokLangTag, tag), nil

	case c == '_' && len(s) > 1 && s[1] == ':':
		label, n, err := rdf.ScanBlankNodeLabel(s)
		if err != nil {
			return token{}, l.scanned(n, err)
		}
		l.pos += n
		return mk(tokBlank, label), nil

	case isDigit(c) || (c == '.' || c == '+' || c == '-') && len(s) > 1 && isDigit(s[1]) ||
		(c == '+' || c == '-') && len(s) > 2 && s[1] == '.' && isDigit(s[2]):
		t, n, err := rdf.ScanNumber(s)
		if err != nil {
			return token{}, l.scanned(n, err)
		}
		l.pos += n
		tok := mk(tokNumber, s[:n])
		tok.datatype = t.Datatype
		return tok, nil

	case c == '^':
		if len(s) > 1 && s[1] == '^' {
			l.pos += 2
			return mk(tokPunct, "^^"), nil
		}
		return token{}, l.errf("unexpected '^'")

	case c == '!':
		if len(s) > 1 && s[1] == '=' {
			l.pos += 2
			return mk(tokPunct, "!="), nil
		}
		return token{}, l.errf("negation (!) is unsupported")

	case strings.HasPrefix(s, "&&") || strings.HasPrefix(s, "||"):
		return token{}, l.errf("logical (%s) is unsupported", s[:2])

	case c == '+' || c == '-' || c == '/':
		// A sign before a digit began a number above.
		return token{}, l.errf("arithmetic (%c) is unsupported", c)

	case c == '>':
		if len(s) > 1 && s[1] == '=' {
			l.pos += 2
			return mk(tokPunct, ">="), nil
		}
		l.pos++
		return mk(tokPunct, ">"), nil

	case strings.IndexByte("{}().,;*=", c) >= 0:
		l.pos++
		return mk(tokPunct, string(c)), nil
	}

	prefix, local, n, err := rdf.ScanPrefixedName(s)
	switch {
	case err != nil:
		return token{}, l.scanned(n, err)
	case n > 0:
		l.pos += n
		if len(prefix)+1+len(local) == n { // no escape in the local name
			return mk(tokPName, s[:n]), nil
		}
		return mk(tokPName, prefix+":"+local), nil
	}
	if t, n := rdf.ScanBoolean(s); n > 0 {
		l.pos += n
		tok := mk(tokBoolean, s[:n])
		tok.datatype = t.Datatype
		return tok, nil
	}
	if isNameStart(rune(c)) {
		word := l.consumeWhile(func(r rune) bool {
			return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
		})
		upper := strings.ToUpper(word)
		if supported, ok := keywords[upper]; ok {
			if !supported {
				return token{}, l.errf("%s is unsupported", upper)
			}
			return mk(tokKeyword, upper), nil
		}
		if word == "a" {
			return mk(tokPunct, "a"), nil
		}
		return token{}, l.errf("unexpected identifier %q", word)
	}
	return token{}, l.errf("unexpected character %q", c)
}

func (l *lexer) consumeName() string {
	return l.consumeWhile(func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
	})
}

func (l *lexer) consumeWhile(pred func(rune) bool) string {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !pred(r) {
			break
		}
		l.pos += size
	}
	return l.src[start:l.pos]
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}
