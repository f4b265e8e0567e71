// Package turtle parses the Turtle subset that DBpedia dumps and hand-
// written ontology files use: @prefix declarations, prefixed names and
// full IRIs, the 'a' keyword, predicate lists with ';', object lists
// with ',', plain/lang-tagged/typed literals, numeric and boolean
// shorthand, blank node labels and comments.
package turtle

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

// ParseError reports a syntax error with position information.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("turtle: line %d: %s", e.Line, e.Msg)
}

// Parse decodes all triples from a Turtle document.
func Parse(r io.Reader) ([]rdf.Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString decodes all triples from a Turtle string.
func ParseString(src string) ([]rdf.Triple, error) {
	p := &parser{src: src, line: 1, prefixes: map[string]string{}}
	return p.document()
}

type parser struct {
	src      string
	pos      int
	line     int
	prefixes map[string]string
	out      []rdf.Triple
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte { return p.src[p.pos] }

func (p *parser) skipWS() {
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *parser) consume(b byte) bool {
	p.skipWS()
	if !p.eof() && p.peek() == b {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(b byte) error {
	if !p.consume(b) {
		found := "end of input"
		if !p.eof() {
			found = fmt.Sprintf("%q", p.peek())
		}
		return p.errf("expected %q, found %s", b, found)
	}
	return nil
}

func (p *parser) document() ([]rdf.Triple, error) {
	for {
		p.skipWS()
		if p.eof() {
			return p.out, nil
		}
		if strings.HasPrefix(p.src[p.pos:], "@prefix") {
			if err := p.prefixDecl(); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "@base") {
			return nil, p.errf("@base is not supported")
		}
		if err := p.triples(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) prefixDecl() error {
	p.pos += len("@prefix")
	p.skipWS()
	// prefix name up to ':'.
	start := p.pos
	for !p.eof() && p.peek() != ':' {
		p.pos++
	}
	if p.eof() {
		return p.errf("unterminated @prefix")
	}
	name := strings.TrimSpace(p.src[start:p.pos])
	p.pos++ // ':'
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	if err := p.expect('.'); err != nil {
		return err
	}
	p.prefixes[name] = iri
	return nil
}

// triples parses "subject predicateObjectList ." with ';' and ','.
func (p *parser) triples() error {
	subj, err := p.term(false)
	if err != nil {
		return err
	}
	if subj.IsLiteral() {
		return p.errf("literal subject")
	}
	for {
		pred, err := p.verb()
		if err != nil {
			return err
		}
		for {
			obj, err := p.term(true)
			if err != nil {
				return err
			}
			p.out = append(p.out, rdf.Triple{S: subj, P: pred, O: obj})
			if !p.consume(',') {
				break
			}
		}
		if p.consume(';') {
			p.skipWS()
			// Allow trailing ';' before '.'.
			if !p.eof() && p.peek() == '.' {
				break
			}
			continue
		}
		break
	}
	return p.expect('.')
}

func (p *parser) verb() (rdf.Term, error) {
	p.skipWS()
	if !p.eof() && p.peek() == 'a' {
		// 'a' must be followed by whitespace or '<' to be the keyword.
		if p.pos+1 >= len(p.src) || p.src[p.pos+1] == ' ' || p.src[p.pos+1] == '\t' || p.src[p.pos+1] == '<' {
			p.pos++
			return rdf.Type(), nil
		}
	}
	t, err := p.term(false)
	if err != nil {
		return rdf.Term{}, err
	}
	if !t.IsIRI() {
		return rdf.Term{}, p.errf("predicate must be an IRI, got %v", t)
	}
	return t, nil
}

// term parses one RDF term. allowLiteral permits literal forms.
func (p *parser) term(allowLiteral bool) (rdf.Term, error) {
	p.skipWS()
	if p.eof() {
		return rdf.Term{}, p.errf("unexpected end of input")
	}
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case c == '_':
		if !strings.HasPrefix(p.src[p.pos:], "_:") {
			return rdf.Term{}, p.errf("malformed blank node")
		}
		p.pos += 2
		start := p.pos
		for !p.eof() && (isNameByte(p.peek()) || p.peek() == '-') {
			p.pos++
		}
		if p.pos == start {
			return rdf.Term{}, p.errf("empty blank node label")
		}
		return rdf.NewBlank(p.src[start:p.pos]), nil
	case c == '"' || c == '\'':
		if !allowLiteral {
			return rdf.Term{}, p.errf("literal not allowed here")
		}
		return p.literal(c)
	case c >= '0' && c <= '9' || c == '-' || c == '+':
		if !allowLiteral {
			return rdf.Term{}, p.errf("number not allowed here")
		}
		return p.number()
	default:
		// true/false or a prefixed name.
		if strings.HasPrefix(p.src[p.pos:], "true") && p.boundaryAt(p.pos+4) {
			if !allowLiteral {
				return rdf.Term{}, p.errf("boolean not allowed here")
			}
			p.pos += 4
			return rdf.NewTypedLiteral("true", rdf.XSDBoolean), nil
		}
		if strings.HasPrefix(p.src[p.pos:], "false") && p.boundaryAt(p.pos+5) {
			if !allowLiteral {
				return rdf.Term{}, p.errf("boolean not allowed here")
			}
			p.pos += 5
			return rdf.NewTypedLiteral("false", rdf.XSDBoolean), nil
		}
		return p.prefixedName()
	}
}

func (p *parser) boundaryAt(i int) bool {
	if i >= len(p.src) {
		return true
	}
	r, _ := utf8.DecodeRuneInString(p.src[i:])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
}

func (p *parser) iriRef() (string, error) {
	if p.eof() || p.peek() != '<' {
		return "", p.errf("expected '<'")
	}
	p.pos++
	start := p.pos
	for !p.eof() && p.peek() != '>' {
		if p.peek() == '\n' {
			return "", p.errf("newline in IRI")
		}
		p.pos++
	}
	if p.eof() {
		return "", p.errf("unterminated IRI")
	}
	iri := p.src[start:p.pos]
	p.pos++
	if iri == "" {
		return "", p.errf("empty IRI")
	}
	return iri, nil
}

func (p *parser) prefixedName() (rdf.Term, error) {
	start := p.pos
	for !p.eof() && p.peek() != ':' && isNameByte(p.peek()) {
		p.pos++
	}
	if p.eof() || p.peek() != ':' {
		return rdf.Term{}, p.errf("expected prefixed name near %q", p.src[start:min(start+12, len(p.src))])
	}
	prefix := p.src[start:p.pos]
	p.pos++
	localStart := p.pos
	for !p.eof() {
		c := p.peek()
		if isNameByte(c) || c == '-' || c == '\'' || c == '(' || c == ')' {
			p.pos++
			continue
		}
		if c == '.' && p.pos+1 < len(p.src) && isNameByte(p.src[p.pos+1]) {
			p.pos++
			continue
		}
		break
	}
	local := p.src[localStart:p.pos]
	ns, ok := p.prefixes[prefix]
	if !ok {
		// Fall back to the globally registered prefixes (rdf:, dbont:, ...).
		if iri, gok := rdf.Expand(prefix + ":" + local); gok {
			return rdf.NewIRI(iri), nil
		}
		return rdf.Term{}, p.errf("unknown prefix %q", prefix)
	}
	return rdf.NewIRI(ns + local), nil
}

// literal parses a string literal opened by quote at the current
// position, then its language tag or datatype. A short string is
// delimited by one quote and stays on its line; a long one, by three
// of the same quote, may span lines and hold unescaped quotes.
func (p *parser) literal(quote byte) (rdf.Term, error) {
	delim := string(quote)
	if long := strings.Repeat(delim, 3); strings.HasPrefix(p.src[p.pos:], long) {
		delim = long
	}
	p.pos += len(delim)
	var sb strings.Builder
	for {
		if p.eof() {
			return rdf.Term{}, p.errf("unterminated string")
		}
		c := p.peek()
		if c == quote && strings.HasPrefix(p.src[p.pos:], delim) {
			p.pos += len(delim)
			break
		}
		if c == '\n' {
			if len(delim) == 1 {
				return rdf.Term{}, p.errf("newline in string")
			}
			p.line++
		}
		if c == '\\' {
			r, n, err := rdf.DecodeEscape(p.src[p.pos:])
			if err != nil {
				return rdf.Term{}, p.errf("%v", err)
			}
			sb.WriteRune(r)
			p.pos += n
			continue
		}
		sb.WriteByte(c)
		p.pos++
	}
	lex := sb.String()
	// Language tag or datatype.
	if !p.eof() && p.peek() == '@' {
		p.pos++
		start := p.pos
		for !p.eof() && (isNameByte(p.peek()) || p.peek() == '-') {
			p.pos++
		}
		lang := p.src[start:p.pos]
		if lang == "" {
			return rdf.Term{}, p.errf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		p.skipWS()
		if !p.eof() && p.peek() == '<' {
			iri, err := p.iriRef()
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewTypedLiteral(lex, iri), nil
		}
		t, err := p.prefixedName()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, t.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

func (p *parser) number() (rdf.Term, error) {
	start := p.pos
	if p.peek() == '-' || p.peek() == '+' {
		p.pos++
	}
	digits := 0
	dot := false
	exp := false
	for !p.eof() {
		c := p.peek()
		switch {
		case c >= '0' && c <= '9':
			digits++
			p.pos++
		case c == '.' && !dot && !exp:
			// A '.' followed by a non-digit terminates the statement.
			if p.pos+1 >= len(p.src) || p.src[p.pos+1] < '0' || p.src[p.pos+1] > '9' {
				goto done
			}
			dot = true
			p.pos++
		case (c == 'e' || c == 'E') && !exp && digits > 0:
			exp = true
			p.pos++
			if !p.eof() && (p.peek() == '-' || p.peek() == '+') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	text := p.src[start:p.pos]
	if digits == 0 {
		return rdf.Term{}, p.errf("malformed number %q", text)
	}
	switch {
	case exp:
		return rdf.NewTypedLiteral(text, rdf.XSDDouble), nil
	case dot:
		return rdf.NewTypedLiteral(text, rdf.XSDDecimal), nil
	default:
		return rdf.NewTypedLiteral(text, rdf.XSDInteger), nil
	}
}

func isNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' ||
		b == '_' || b >= 0x80
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
