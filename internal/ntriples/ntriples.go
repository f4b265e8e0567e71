// Package ntriples reads and writes the N-Triples serialisation of RDF
// graphs (https://www.w3.org/TR/n-triples/), the line-oriented format used
// by DBpedia dumps. It supports IRIs, blank nodes, plain, language-tagged
// and datatyped literals, the standard string escapes, \uXXXX/\UXXXXXXXX
// sequences, and '#' comment lines.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

// ParseError describes a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Reader decodes triples from an N-Triples stream.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Reader{sc: sc}
}

// Next returns the next triple. It returns io.EOF at end of input.
func (r *Reader) Next() (rdf.Triple, error) {
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

// ReadAll decodes every triple in r.
func ReadAll(r io.Reader) ([]rdf.Triple, error) {
	rd := NewReader(r)
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

// ParseString decodes every triple from a string.
func ParseString(s string) ([]rdf.Triple, error) {
	return ReadAll(strings.NewReader(s))
}

func (r *Reader) errf(format string, args ...any) error {
	return &ParseError{Line: r.line, Msg: fmt.Sprintf(format, args...)}
}

func (r *Reader) parseLine(line string) (rdf.Triple, error) {
	p := &lineParser{s: line}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, r.errf("subject: %v", err)
	}
	if s.IsLiteral() {
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

type lineParser struct {
	s string
	i int
}

func (p *lineParser) eof() bool     { return p.i >= len(p.s) }
func (p *lineParser) rest() string  { return p.s[p.i:] }
func (p *lineParser) peek() byte    { return p.s[p.i] }
func (p *lineParser) advance() byte { b := p.s[p.i]; p.i++; return b }

func (p *lineParser) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.i++
	}
}

func (p *lineParser) consume(b byte) bool {
	if !p.eof() && p.peek() == b {
		p.i++
		return true
	}
	return false
}

func (p *lineParser) term() (rdf.Term, error) {
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

func (p *lineParser) iri() (rdf.Term, error) {
	p.i++ // '<'
	var sb strings.Builder
	for !p.eof() {
		b := p.advance()
		if b == '>' {
			val, err := unescape(sb.String())
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

func (p *lineParser) blank() (rdf.Term, error) {
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

func (p *lineParser) literal() (rdf.Term, error) {
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
	lex, err := unescape(sb.String())
	if err != nil {
		return rdf.Term{}, err
	}
	// Optional language tag or datatype.
	if !p.eof() && p.peek() == '@' {
		p.i++
		start := p.i
		for !p.eof() && (isAlnum(p.peek()) || p.peek() == '-') {
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

func (p *lineParser) iriOnly() (string, error) {
	if p.eof() || p.peek() != '<' {
		return "", fmt.Errorf("expected '<'")
	}
	t, err := p.iri()
	if err != nil {
		return "", err
	}
	return t.Value, nil
}

func isAlnum(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// unescape resolves N-Triples string escapes.
func unescape(s string) (string, error) {
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

// Writer encodes triples as N-Triples lines.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one triple. Errors are sticky; Flush reports the first one.
func (w *Writer) Write(t rdf.Triple) error {
	if w.err != nil {
		return w.err
	}
	if t.S.IsVar() || t.P.IsVar() || t.O.IsVar() {
		w.err = fmt.Errorf("ntriples: cannot serialise triple with variables: %v", t)
		return w.err
	}
	_, w.err = fmt.Fprintf(w.w, "%s %s %s .\n",
		formatTerm(t.S), formatTerm(t.P), formatTerm(t.O))
	return w.err
}

// Flush flushes the underlying buffer and returns any sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// WriteAll serialises triples to w in N-Triples format.
func WriteAll(w io.Writer, triples []rdf.Triple) error {
	nw := NewWriter(w)
	for _, t := range triples {
		if err := nw.Write(t); err != nil {
			return err
		}
	}
	return nw.Flush()
}

// formatTerm renders a term in strict N-Triples (no prefixes).
func formatTerm(t rdf.Term) string {
	switch t.Kind {
	case rdf.KindIRI:
		return "<" + escapeIRI(t.Value) + ">"
	case rdf.KindBlank:
		return "_:" + t.Value
	case rdf.KindLiteral:
		s := `"` + escapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" {
			return s + "^^<" + escapeIRI(t.Datatype) + ">"
		}
		return s
	default:
		return "<<invalid>>"
	}
}

func escapeLiteral(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func escapeIRI(s string) string {
	// IRIs in our KBs are already clean; escape the few forbidden chars.
	r := strings.NewReplacer(" ", "%20", "<", "%3C", ">", "%3E", `"`, "%22")
	return r.Replace(s)
}
