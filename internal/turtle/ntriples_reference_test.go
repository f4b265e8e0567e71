package turtle

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

// The N-Triples reader internal/ntriples shipped before N-Triples became
// a mode of this package's parser, kept verbatim as the oracle of
// FuzzParseTurtle's N-Triples half and of TestNTriplesMatchesReference.

// refNTReader decodes triples from an N-Triples stream.
type refNTReader struct {
	sc   *bufio.Scanner
	line int
}

// newRefNTReader returns a refNTReader over r.
func newRefNTReader(r io.Reader) *refNTReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &refNTReader{sc: sc}
}

// Next returns the next triple. It returns io.EOF at end of input.
func (r *refNTReader) Next() (rdf.Triple, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := r.parseLine(line)
		if err != nil {
			return rdf.Triple{}, err
		}
		return t, nil
	}
	if err := r.sc.Err(); err != nil {
		return rdf.Triple{}, err
	}
	return rdf.Triple{}, io.EOF
}

// refNTReadAll decodes every triple in r.
func refNTReadAll(r io.Reader) ([]rdf.Triple, error) {
	rd := newRefNTReader(r)
	var out []rdf.Triple
	for {
		t, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// refParseNTriples decodes every triple from a string.
func refParseNTriples(s string) ([]rdf.Triple, error) {
	return refNTReadAll(strings.NewReader(s))
}

func (r *refNTReader) errf(format string, args ...any) error {
	return fmt.Errorf("ntriples: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

func (r *refNTReader) parseLine(line string) (rdf.Triple, error) {
	p := &refLineParser{s: line}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, r.errf("subject: %v", err)
	}
	if s.Kind == rdf.KindLiteral {
		return rdf.Triple{}, r.errf("subject must not be a literal")
	}
	p.skipWS()
	pr, err := p.term()
	if err != nil {
		return rdf.Triple{}, r.errf("predicate: %v", err)
	}
	if !pr.IsIRI() {
		return rdf.Triple{}, r.errf("predicate must be an IRI")
	}
	p.skipWS()
	o, err := p.term()
	if err != nil {
		return rdf.Triple{}, r.errf("object: %v", err)
	}
	p.skipWS()
	if !p.consume('.') {
		return rdf.Triple{}, r.errf("missing terminating '.'")
	}
	p.skipWS()
	if !p.eof() && !strings.HasPrefix(p.rest(), "#") {
		return rdf.Triple{}, r.errf("trailing garbage after '.': %q", p.rest())
	}
	return rdf.Triple{S: s, P: pr, O: o}, nil
}

type refLineParser struct {
	s string
	i int
}

func (p *refLineParser) eof() bool     { return p.i >= len(p.s) }
func (p *refLineParser) rest() string  { return p.s[p.i:] }
func (p *refLineParser) peek() byte    { return p.s[p.i] }
func (p *refLineParser) advance() byte { b := p.s[p.i]; p.i++; return b }

func (p *refLineParser) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.i++
	}
}

func (p *refLineParser) consume(b byte) bool {
	if !p.eof() && p.peek() == b {
		p.i++
		return true
	}
	return false
}

func (p *refLineParser) term() (rdf.Term, error) {
	p.skipWS()
	if p.eof() {
		return rdf.Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, fmt.Errorf("unexpected character %q", p.peek())
	}
}

func (p *refLineParser) iri() (rdf.Term, error) {
	p.i++ // '<'
	var sb strings.Builder
	for !p.eof() {
		b := p.advance()
		if b == '>' {
			val, err := refUnescape(sb.String())
			if err != nil {
				return rdf.Term{}, err
			}
			if val == "" {
				return rdf.Term{}, fmt.Errorf("empty IRI")
			}
			return rdf.NewIRI(val), nil
		}
		if b == '\\' {
			if p.eof() {
				return rdf.Term{}, fmt.Errorf("dangling escape in IRI")
			}
			sb.WriteByte('\\')
			sb.WriteByte(p.advance())
			continue
		}
		sb.WriteByte(b)
	}
	return rdf.Term{}, fmt.Errorf("unterminated IRI")
}

func (p *refLineParser) blank() (rdf.Term, error) {
	if !strings.HasPrefix(p.rest(), "_:") {
		return rdf.Term{}, fmt.Errorf("malformed blank node")
	}
	p.i += 2
	start := p.i
	for !p.eof() && p.peek() != ' ' && p.peek() != '\t' && p.peek() != '.' {
		p.i++
	}
	label := p.s[start:p.i]
	if label == "" {
		return rdf.Term{}, fmt.Errorf("empty blank node label")
	}
	return rdf.NewBlank(label), nil
}

func (p *refLineParser) literal() (rdf.Term, error) {
	p.i++ // '"'
	var sb strings.Builder
	for {
		if p.eof() {
			return rdf.Term{}, fmt.Errorf("unterminated literal")
		}
		b := p.advance()
		if b == '"' {
			break
		}
		if b == '\\' {
			if p.eof() {
				return rdf.Term{}, fmt.Errorf("dangling escape in literal")
			}
			sb.WriteByte('\\')
			sb.WriteByte(p.advance())
			continue
		}
		sb.WriteByte(b)
	}
	lex, err := refUnescape(sb.String())
	if err != nil {
		return rdf.Term{}, err
	}
	// Optional language tag or datatype.
	if !p.eof() && p.peek() == '@' {
		p.i++
		start := p.i
		for !p.eof() && (refIsAlnum(p.peek()) || p.peek() == '-') {
			p.i++
		}
		lang := p.s[start:p.i]
		if lang == "" {
			return rdf.Term{}, fmt.Errorf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.rest(), "^^") {
		p.i += 2
		dt, err := p.iriOnly()
		if err != nil {
			return rdf.Term{}, fmt.Errorf("datatype: %v", err)
		}
		return rdf.NewTypedLiteral(lex, dt), nil
	}
	return rdf.NewLiteral(lex), nil
}

func (p *refLineParser) iriOnly() (string, error) {
	if p.eof() || p.peek() != '<' {
		return "", fmt.Errorf("expected '<'")
	}
	t, err := p.iri()
	if err != nil {
		return "", err
	}
	return t.Value, nil
}

func refIsAlnum(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// refUnescape resolves N-Triples string escapes.
func refUnescape(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		r, n, err := rdf.DecodeEscape(s[i:])
		if err != nil {
			return "", err
		}
		sb.WriteRune(r)
		i += n
	}
	return sb.String(), nil
}
