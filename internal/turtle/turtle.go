// Package turtle is the one statement parser for RDF text, with three
// uses:
//
//   - a Turtle document (ParseString): @prefix declarations, prefixed
//     names and full IRIs, the 'a' keyword, predicate lists with ';',
//     object lists with ',', short and long strings with a language tag
//     or a datatype, numeric and boolean shorthand, blank node labels
//     and comments;
//   - N-Triples (ParseNTriplesString), the strict, line-oriented subset:
//     one triple per line, full IRIs, blank nodes and double-quoted short
//     strings only;
//   - a SPARQL DATA block (ParseBlock): Turtle statements under the
//     request's PREFIX map, up to the block's closing '}', where the
//     final '.' may be left out.
//
// Every term is read by the shared term reader (rdf.ScanIRIRef and its
// siblings), which the SPARQL query lexer uses too. @base and the
// collection and blank-node-property-list forms are not supported.
package turtle

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

// ParseError reports a syntax error with the line it was found on.
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

// ParseNTriples decodes all triples from an N-Triples document.
func ParseNTriples(r io.Reader) ([]rdf.Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseNTriplesString(string(data))
}

// ParseNTriplesString decodes all triples from an N-Triples string.
func ParseNTriplesString(src string) ([]rdf.Triple, error) {
	// A triple per line: one allocation holds them all.
	p := &parser{src: src, line: 1, nt: true, out: make([]rdf.Triple, 0, strings.Count(src, "\n")+1)}
	return p.document()
}

// ParseBlock decodes the triples of the SPARQL DATA block whose body
// starts at src[pos], just after its '{', on line line of src. Prefixed
// names resolve against prefixes first. It returns the offset just past
// the closing '}' and the line there; error lines count from the start
// of src.
func ParseBlock(src string, pos, line int, prefixes map[string]string) (triples []rdf.Triple, end, endLine int, err error) {
	p := &parser{src: src, pos: pos, line: line, block: true, prefixes: prefixes}
	triples, err = p.document()
	return triples, p.pos, p.line, err
}

type parser struct {
	src  string
	pos  int
	line int
	// nt selects N-Triples, block a SPARQL DATA block; neither, Turtle.
	nt, block bool
	// inStatement is set while an N-Triples statement is read: it may
	// not run past the end of its line.
	inStatement bool
	prefixes    map[string]string
	out         []rdf.Triple
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// fail reports err from a term scan at p.pos, whose fault lies n bytes
// on: a long string's line breaks before it count.
func (p *parser) fail(n int, err error) error {
	return &ParseError{Line: p.line + strings.Count(p.src[p.pos:p.pos+n], "\n"), Msg: err.Error()}
}

// advance moves past n scanned bytes, counting the line breaks.
func (p *parser) advance(n int) {
	p.line += strings.Count(p.src[p.pos:p.pos+n], "\n")
	p.pos += n
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte { return p.src[p.pos] }

// found describes the next input for an error message.
func (p *parser) found() string {
	switch {
	case p.eof() && p.block:
		return "end of input (unterminated '{' block)"
	case p.eof():
		return "end of input"
	case p.peek() == '\n':
		return "end of line"
	}
	return fmt.Sprintf("%q", p.peek())
}

// skipWS skips white space and comments. Inside an N-Triples statement
// it stops at a line break.
func (p *parser) skipWS() {
	for !p.eof() {
		switch p.src[p.pos] {
		case '\n':
			if p.inStatement {
				return
			}
			p.line++
			p.pos++
		case ' ', '\t', '\r':
			p.pos++
		case '#':
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
		return p.errf("expected %q, found %s", b, p.found())
	}
	return nil
}

func (p *parser) document() ([]rdf.Triple, error) {
	for {
		p.skipWS()
		switch {
		case p.eof():
			if p.block {
				return nil, p.errf("unterminated '{' block")
			}
			return p.out, nil
		case p.block && p.peek() == '}':
			p.pos++
			return p.out, nil
		case p.peek() == '@' && !p.nt && !p.block:
			if err := p.directive(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.triples(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) directive() error {
	switch s := p.src[p.pos:]; {
	case strings.HasPrefix(s, "@prefix"):
		p.pos += len("@prefix")
	case strings.HasPrefix(s, "@base"):
		return p.errf("@base is not supported")
	default:
		return p.errf("unknown directive")
	}
	p.skipWS()
	name, local, n, err := rdf.ScanPrefixedName(p.src[p.pos:])
	if n == 0 || err != nil || local != "" {
		return p.errf("@prefix: expected \"name:\"")
	}
	p.pos += n
	p.skipWS()
	if p.eof() || p.peek() != '<' {
		return p.errf("@prefix %s: expected <iri>", name)
	}
	iri, n, err := rdf.ScanIRIRef(p.src[p.pos:])
	if err != nil {
		return p.fail(n, err)
	}
	p.pos += n
	if err := p.expect('.'); err != nil {
		return err
	}
	p.prefixes[name] = iri
	return nil
}

// triples parses "subject predicateObjectList ." with ';' and ','.
func (p *parser) triples() error {
	p.inStatement = p.nt
	subj, err := p.term("subject")
	if err != nil {
		return err
	}
	for {
		pred, err := p.verb()
		if err != nil {
			return err
		}
		for {
			obj, err := p.term("object")
			if err != nil {
				return err
			}
			p.out = append(p.out, rdf.Triple{S: subj, P: pred, O: obj})
			if p.nt || !p.consume(',') {
				break
			}
		}
		if p.nt || !p.consume(';') {
			break
		}
		for p.consume(';') {
		}
		if p.skipWS(); p.eof() || p.peek() == '.' || p.block && p.peek() == '}' {
			break
		}
	}
	return p.end()
}

// end consumes the '.' that ends a statement. A DATA block's last
// statement may end at its '}' instead, and an N-Triples statement
// ends its line.
func (p *parser) end() error {
	if p.block {
		if p.skipWS(); !p.eof() && p.peek() == '}' {
			return nil
		}
	}
	if err := p.expect('.'); err != nil {
		return err
	}
	if p.nt {
		if p.skipWS(); !p.eof() && p.peek() != '\n' {
			return p.errf("trailing %q after '.'", p.peek())
		}
		p.inStatement = false
	}
	return nil
}

func (p *parser) verb() (rdf.Term, error) {
	p.skipWS()
	if !p.nt && rdf.StartsWithWord(p.src[p.pos:], "a") {
		p.pos++
		return rdf.Type(), nil
	}
	return p.term("predicate")
}

// term reads one RDF term in role: a subject and a predicate are never
// literals, and a predicate is an IRI.
func (p *parser) term(role string) (rdf.Term, error) {
	p.skipWS()
	if p.eof() || p.peek() == '\n' {
		return rdf.Term{}, p.errf("expected %s, found %s", role, p.found())
	}
	s := p.src[p.pos:]
	c := s[0]
	switch {
	case c == '<':
		iri, n, err := rdf.ScanIRIRef(s)
		if err != nil {
			return rdf.Term{}, p.fail(n, err)
		}
		p.pos += n
		return rdf.NewIRI(iri), nil
	case c == '_' && strings.HasPrefix(s, "_:"):
		if role == "predicate" {
			return rdf.Term{}, p.errf("a blank node is not a predicate")
		}
		label, n, err := rdf.ScanBlankNodeLabel(s)
		if err != nil {
			return rdf.Term{}, p.fail(n, err)
		}
		p.pos += n
		return rdf.NewBlank(label), nil
	case p.nt:
		if c == '"' && !strings.HasPrefix(s, `"""`) {
			return p.literal(role)
		}
	case c == '"' || c == '\'':
		return p.literal(role)
	case c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.' && len(s) > 1 && s[1] >= '0' && s[1] <= '9':
		if role != "object" {
			return rdf.Term{}, p.errf("a number is not a %s", role)
		}
		t, n, err := rdf.ScanNumber(s)
		if err != nil {
			return rdf.Term{}, p.fail(n, err)
		}
		p.pos += n
		return t, nil
	default:
		if t, n := rdf.ScanBoolean(s); n > 0 {
			if role != "object" {
				return rdf.Term{}, p.errf("a boolean is not a %s", role)
			}
			p.pos += n
			return t, nil
		}
		return p.prefixedName(role)
	}
	return rdf.Term{}, p.errf("expected %s, found %s", role, p.found())
}

// prefixedName reads a prefixed name and resolves it: against the
// document's @prefix declarations (a DATA block's PREFIX map) first,
// then the globally registered prefixes (rdf:, dbont:, ...).
func (p *parser) prefixedName(role string) (rdf.Term, error) {
	prefix, local, n, err := rdf.ScanPrefixedName(p.src[p.pos:])
	switch {
	case err != nil:
		return rdf.Term{}, p.fail(n, err)
	case n == 0:
		return rdf.Term{}, p.errf("expected %s, found %s", role, p.found())
	}
	if ns, ok := p.prefixes[prefix]; ok {
		p.pos += n
		return rdf.NewIRI(ns + local), nil
	}
	if iri, ok := rdf.Expand(prefix + ":" + local); ok {
		p.pos += n
		return rdf.NewIRI(iri), nil
	}
	return rdf.Term{}, p.errf("unknown prefix %q", prefix)
}

// literal reads a string and its language tag or datatype.
func (p *parser) literal(role string) (rdf.Term, error) {
	if role != "object" {
		return rdf.Term{}, p.errf("a literal is not a %s", role)
	}
	lex, n, err := rdf.ScanString(p.src[p.pos:])
	if err != nil {
		return rdf.Term{}, p.fail(n, err)
	}
	p.advance(n)
	if !p.nt {
		p.skipWS() // Turtle, like SPARQL, lets space part a string from its tag
	}
	if !p.eof() && p.peek() == '@' {
		tag, n, err := rdf.ScanLangTag(p.src[p.pos:])
		if err != nil {
			return rdf.Term{}, p.fail(n, err)
		}
		p.pos += n
		return rdf.NewLangLiteral(lex, tag), nil
	}
	if !strings.HasPrefix(p.src[p.pos:], "^^") {
		return rdf.NewLiteral(lex), nil
	}
	p.pos += 2
	if p.nt && (p.eof() || p.peek() != '<') {
		return rdf.Term{}, p.errf("expected <datatype IRI>, found %s", p.found())
	}
	dt, err := p.term("datatype")
	if err != nil {
		return rdf.Term{}, err
	}
	if !dt.IsIRI() {
		return rdf.Term{}, p.errf("datatype must be an IRI, got %v", dt)
	}
	return rdf.NewTypedLiteral(lex, dt.Value), nil
}
