// Package sparql implements the SPARQL 1.0 subset the question answering
// pipeline generates and the evaluation harness needs: SELECT and ASK
// queries with basic graph patterns, FILTER expressions, DISTINCT,
// ORDER BY, LIMIT and OFFSET, executed against the internal triple store.
//
// The engine is three stages: a lexer (this file), a recursive-descent
// parser producing a small algebra (parser.go, ast.go), and an executor
// that performs selectivity-ordered index nested-loop joins (eval.go).
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
	tokNumber  // integer or decimal
	tokBoolean // true / false
	tokLangTag // @en
	tokPunct   // { } ( ) . , ; * = != < > <= >= && || ! + - / ^^ a
	tokBlank   // _:label
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for errors
	line int
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

var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "WHERE": true, "PREFIX": true, "BASE": true,
	"DISTINCT": true, "REDUCED": true, "FILTER": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"OPTIONAL": true, "UNION": true, "REGEX": true, "BOUND": true,
	"STR": true, "LANG": true, "DATATYPE": true, "ISIRI": true,
	"ISURI": true, "ISLITERAL": true, "ISBLANK": true, "ISNUMERIC": true,
	"CONTAINS": true, "STRSTARTS": true, "STRENDS": true, "LCASE": true,
	"UCASE": true, "STRLEN": true, "LANGMATCHES": true, "SAMETERM": true,
	"COUNT": true, "AS": true,
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
	c := l.src[l.pos]
	switch {
	case c == '?' || c == '$':
		l.pos++
		name := l.consumeName()
		if name == "" {
			return token{}, l.errf("empty variable name")
		}
		return mk(tokVar, name), nil

	case c == '<':
		// Disambiguate IRI-start from the less-than operator: an IRIREF
		// contains no whitespace, quotes or braces before its closing '>'.
		if iri, n, ok := scanIRIRef(l.src[l.pos:]); ok {
			l.pos += n
			return mk(tokIRI, iri), nil
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return mk(tokPunct, "<="), nil
		}
		l.pos++
		return mk(tokPunct, "<"), nil

	case c == '"' || c == '\'':
		s, err := l.consumeString(c)
		if err != nil {
			return token{}, err
		}
		return mk(tokString, s), nil

	case c == '@':
		l.pos++
		tag := l.consumeWhile(func(r rune) bool {
			return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-'
		})
		if tag == "" {
			return token{}, l.errf("empty language tag")
		}
		return mk(tokLangTag, tag), nil

	case c == '_' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':':
		l.pos += 2
		name := l.consumeName()
		if name == "" {
			return token{}, l.errf("empty blank node label")
		}
		return mk(tokBlank, name), nil

	case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		num := l.consumeNumber()
		return mk(tokNumber, num), nil

	case c == '^':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '^' {
			l.pos += 2
			return mk(tokPunct, "^^"), nil
		}
		return token{}, l.errf("unexpected '^'")

	case c == '&':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '&' {
			l.pos += 2
			return mk(tokPunct, "&&"), nil
		}
		return token{}, l.errf("unexpected '&'")

	case c == '|':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '|' {
			l.pos += 2
			return mk(tokPunct, "||"), nil
		}
		return token{}, l.errf("unexpected '|'")

	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return mk(tokPunct, "!="), nil
		}
		l.pos++
		return mk(tokPunct, "!"), nil

	case c == '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return mk(tokPunct, ">="), nil
		}
		l.pos++
		return mk(tokPunct, ">"), nil

	case strings.IndexByte("{}().,;*=+-/", c) >= 0:
		// '>'-style two-char handled above. Watch for ">=" "<=".
		l.pos++
		return mk(tokPunct, string(c)), nil

	default:
		if isNameStart(rune(c)) {
			word := l.consumeWhile(func(r rune) bool {
				return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
			})
			// Prefixed name? prefix ':' local
			if l.pos < len(l.src) && l.src[l.pos] == ':' {
				l.pos++
				local := l.consumeLocalName()
				return mk(tokPName, word+":"+local), nil
			}
			upper := strings.ToUpper(word)
			if keywords[upper] {
				return mk(tokKeyword, upper), nil
			}
			if word == "a" {
				return mk(tokPunct, "a"), nil
			}
			if word == "true" || word == "false" {
				return mk(tokBoolean, word), nil
			}
			return token{}, l.errf("unexpected identifier %q", word)
		}
		if c == ':' { // default-prefix pname ":local"
			l.pos++
			local := l.consumeLocalName()
			return mk(tokPName, ":"+local), nil
		}
		return token{}, l.errf("unexpected character %q", c)
	}
}

func (l *lexer) consumeName() string {
	return l.consumeWhile(func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
	})
}

// consumeLocalName consumes a PN_LOCAL-style name: like a plain name but
// permitting '.', '-' and '\” in the interior when followed by another
// name character (so "Washington_D.C." lexes as one token while the
// triple-terminating dot in "res:Snow ." does not).
func (l *lexer) consumeLocalName() string {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '\'' {
			l.pos += size
			continue
		}
		if r == '.' {
			// Lookahead: interior dot only.
			nr, _ := utf8.DecodeRuneInString(l.src[l.pos+size:])
			if l.pos+size < len(l.src) && (unicode.IsLetter(nr) || unicode.IsDigit(nr) || nr == '_') {
				l.pos += size
				continue
			}
			// A trailing dot like "D.C." keeps its final dot only when the
			// preceding char is a single capital (heuristic for initialisms).
			if l.pos-1 >= start && isInitialismTail(l.src[start:l.pos]) {
				l.pos += size
				continue
			}
		}
		break
	}
	return l.src[start:l.pos]
}

// isInitialismTail reports whether s ends in ".X" for one capital letter X,
// meaning a following '.' belongs to the name ("Washington_D.C.").
func isInitialismTail(s string) bool {
	if len(s) < 2 {
		return false
	}
	last := s[len(s)-1]
	if last < 'A' || last > 'Z' {
		return false
	}
	return s[len(s)-2] == '.' || s[len(s)-2] == '_'
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

func (l *lexer) consumeNumber() string {
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
		// A '.' followed by a non-digit terminates the number (it is the
		// triple terminator).
		if l.src[l.pos] == '.' && (l.pos+1 >= len(l.src) || !isDigit(l.src[l.pos+1])) {
			break
		}
		l.pos++
	}
	// Exponent part.
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	return l.src[start:l.pos]
}

func (l *lexer) consumeString(quote byte) (string, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			return sb.String(), nil
		}
		if c == '\n' {
			return "", l.errf("newline in string literal")
		}
		if c == '\\' {
			r, n, err := rdf.DecodeEscape(l.src[l.pos:])
			if err != nil {
				return "", l.errf("%v in string", err)
			}
			sb.WriteRune(r)
			l.pos += n
			continue
		}
		sb.WriteByte(c)
		l.pos++
	}
	return "", l.errf("unterminated string literal")
}

// scanIRIRef scans a '<...>' IRI reference at the start of s. It reports
// the IRI content, the number of bytes consumed (including brackets) and
// whether a well-formed IRIREF was present.
func scanIRIRef(s string) (iri string, n int, ok bool) {
	if len(s) == 0 || s[0] != '<' {
		return "", 0, false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '>':
			return s[1:i], i + 1, true
		case c <= ' ' || c == '"' || c == '{' || c == '}' || c == '|' || c == '^' || c == '`' || c == '\\' || c == '<':
			return "", 0, false
		}
	}
	return "", 0, false
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}
