package turtle

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

// The Turtle parser this package shipped before the shared term reader
// (rdf.Scan*), kept verbatim as the oracle of FuzzParseTurtle: on an
// input both accept, the two must read the same triples but for the
// deliberate grammar changes listed there.

// refParseTurtle decodes all triples from a Turtle string.
func refParseTurtle(src string) ([]rdf.Triple, error) {
	p := &refParser{src: src, line: 1, prefixes: map[string]string{}}
	return p.document()
}

type refParser struct {
	src      string
	pos      int
	line     int
	prefixes map[string]string
	out      []rdf.Triple
}

func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *refParser) eof() bool { return p.pos >= len(p.src) }

func (p *refParser) peek() byte { return p.src[p.pos] }

func (p *refParser) skipWS() {
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

func (p *refParser) consume(b byte) bool {
	p.skipWS()
	if !p.eof() && p.peek() == b {
		p.pos++
		return true
	}
	return false
}

func (p *refParser) expect(b byte) error {
	if !p.consume(b) {
		found := "end of input"
		if !p.eof() {
			found = fmt.Sprintf("%q", p.peek())
		}
		return p.errf("expected %q, found %s", b, found)
	}
	return nil
}

func (p *refParser) document() ([]rdf.Triple, error) {
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

func (p *refParser) prefixDecl() error {
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
func (p *refParser) triples() error {
	subj, err := p.term(false)
	if err != nil {
		return err
	}
	if subj.Kind == rdf.KindLiteral {
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

func (p *refParser) verb() (rdf.Term, error) {
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
func (p *refParser) term(allowLiteral bool) (rdf.Term, error) {
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
		for !p.eof() && (refIsNameByte(p.peek()) || p.peek() == '-') {
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

func (p *refParser) boundaryAt(i int) bool {
	if i >= len(p.src) {
		return true
	}
	r, _ := utf8.DecodeRuneInString(p.src[i:])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
}

func (p *refParser) iriRef() (string, error) {
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

func (p *refParser) prefixedName() (rdf.Term, error) {
	start := p.pos
	for !p.eof() && p.peek() != ':' && refIsNameByte(p.peek()) {
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
		if refIsNameByte(c) || c == '-' || c == '\'' || c == '(' || c == ')' {
			p.pos++
			continue
		}
		if c == '.' && p.pos+1 < len(p.src) && refIsNameByte(p.src[p.pos+1]) {
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
func (p *refParser) literal(quote byte) (rdf.Term, error) {
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
		for !p.eof() && (refIsNameByte(p.peek()) || p.peek() == '-') {
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

func (p *refParser) number() (rdf.Term, error) {
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

func refIsNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' ||
		b == '_' || b >= 0x80
}
