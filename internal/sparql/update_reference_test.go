package sparql

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// The SPARQL UPDATE parser this package shipped before DATA blocks were
// a mode of the turtle parser, kept as the oracle of FuzzParseUpdate: it
// scans each block to its '}', skipping strings and IRI references,
// then parses the block as Turtle under a re-serialised @prefix header,
// and again with a "." appended when that fails.

func refParseUpdate(src string) ([]store.BatchOp, error) {
	p := &refUpdateParser{src: src, line: 1}
	return p.parse()
}

type refUpdateParser struct {
	src      string
	pos      int
	line     int
	prefixes strings.Builder // accumulated "@prefix ..." header for turtle
}

func (p *refUpdateParser) errf(format string, args ...any) error {
	return &UpdateError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *refUpdateParser) eof() bool { return p.pos >= len(p.src) }

func (p *refUpdateParser) skipWS() {
	for !p.eof() {
		switch c := p.src[p.pos]; {
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

// keyword reads the next bare word (letters only), uppercased; "" when
// the next token is not a word.
func (p *refUpdateParser) keyword() string {
	p.skipWS()
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
			continue
		}
		break
	}
	return strings.ToUpper(p.src[start:p.pos])
}

func (p *refUpdateParser) parse() ([]store.BatchOp, error) {
	var ops []store.BatchOp
	for {
		p.skipWS()
		if p.eof() {
			break
		}
		if p.src[p.pos] == ';' { // empty operation between separators
			p.pos++
			continue
		}
		kw := p.keyword()
		switch kw {
		case "PREFIX":
			if err := p.prefixDecl(); err != nil {
				return nil, err
			}
		case "BASE":
			return nil, p.errf("BASE is not supported")
		case "INSERT", "DELETE":
			del := kw == "DELETE"
			if next := p.keyword(); next != "DATA" {
				return nil, p.errf("only %s DATA is supported (pattern-based %s requires WHERE evaluation)", kw, kw)
			}
			triples, err := p.dataBlock(del)
			if err != nil {
				return nil, err
			}
			ops = append(ops, store.BatchOp{Delete: del, Triples: triples})
		case "":
			return nil, p.errf("expected INSERT DATA, DELETE DATA or PREFIX, found %q", p.src[p.pos])
		default:
			return nil, p.errf("unsupported update verb %q (only INSERT DATA and DELETE DATA)", kw)
		}
	}
	if len(ops) == 0 {
		return nil, &UpdateError{Line: 1, Msg: "no update operation found"}
	}
	return ops, nil
}

// prefixDecl consumes `name: <iri>` after the PREFIX keyword and
// records it as a Turtle @prefix line for the block bodies.
func (p *refUpdateParser) prefixDecl() error {
	p.skipWS()
	start := p.pos
	for !p.eof() && p.src[p.pos] != ':' {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '<' {
			break
		}
		p.pos++
	}
	if p.eof() || p.src[p.pos] != ':' {
		return p.errf("PREFIX: expected \"name:\"")
	}
	name := p.src[start:p.pos]
	p.pos++ // ':'
	p.skipWS()
	if p.eof() || p.src[p.pos] != '<' {
		return p.errf("PREFIX %s: expected <iri>", name)
	}
	iriStart := p.pos + 1
	for p.pos++; !p.eof() && p.src[p.pos] != '>'; p.pos++ {
		if p.src[p.pos] == '\n' {
			return p.errf("PREFIX %s: unterminated <iri>", name)
		}
	}
	if p.eof() {
		return p.errf("PREFIX %s: unterminated <iri>", name)
	}
	iri := p.src[iriStart:p.pos]
	p.pos++ // '>'
	fmt.Fprintf(&p.prefixes, "@prefix %s: <%s> .\n", name, iri)
	return nil
}

// dataBlock consumes a braced triple block and parses it as Turtle
// under the accumulated prefixes. The brace scan skips strings, IRI
// references and comments, so a '{', '}' or '#' inside a literal or an
// IRI neither unbalances it nor starts a comment.
func (p *refUpdateParser) dataBlock(del bool) ([]rdf.Triple, error) {
	p.skipWS()
	if p.eof() || p.src[p.pos] != '{' {
		return nil, p.errf("expected '{' after DATA")
	}
	p.pos++
	start, startLine := p.pos, p.line
	depth := 1
	for !p.eof() {
		switch c := p.src[p.pos]; c {
		case '\n':
			p.line++
			p.pos++
		case '#':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		case '"', '\'':
			if err := p.skipString(c); err != nil {
				return nil, err
			}
		case '<':
			p.skipIRI()
		case '{':
			depth++
			p.pos++
		case '}':
			depth--
			p.pos++
			if depth == 0 {
				body := p.src[start : p.pos-1]
				return p.parseTriples(body, startLine, del)
			}
		default:
			p.pos++
		}
	}
	return nil, p.errf("unterminated '{' block")
}

// skipIRI consumes an IRI reference opened at the current position, up
// to its '>' or to the end of the line, which no IRI spans (the Turtle
// parser reports that one).
func (p *refUpdateParser) skipIRI() {
	for p.pos++; !p.eof() && p.src[p.pos] != '\n'; p.pos++ {
		if p.src[p.pos] == '>' {
			p.pos++
			return
		}
	}
}

// skipString consumes a short or long (triple-quoted) string literal
// opened by delim at the current position, honouring backslash escapes.
func (p *refUpdateParser) skipString(delim byte) error {
	long := strings.HasPrefix(p.src[p.pos:], strings.Repeat(string(delim), 3))
	if long {
		p.pos += 3
	} else {
		p.pos++
	}
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == '\\':
			p.pos += 2
		case c == delim:
			if !long {
				p.pos++
				return nil
			}
			if strings.HasPrefix(p.src[p.pos:], strings.Repeat(string(delim), 3)) {
				p.pos += 3
				return nil
			}
			p.pos++
		case c == '\n':
			if !long {
				return p.errf("unterminated string literal")
			}
			p.line++
			p.pos++
		default:
			p.pos++
		}
	}
	return p.errf("unterminated string literal")
}

// parseTriples hands a block body to the Turtle parser with the
// request's PREFIX declarations prepended, then validates groundness.
func (p *refUpdateParser) parseTriples(body string, line int, del bool) ([]rdf.Triple, error) {
	if strings.TrimSpace(body) == "" {
		return nil, nil // empty DATA block: a valid no-op operation
	}
	src := p.prefixes.String() + body
	headerLines := strings.Count(p.prefixes.String(), "\n")
	triples, err := turtle.ParseString(src)
	if err != nil {
		// SPARQL allows the final statement of a DATA block to omit the
		// '.' terminator Turtle demands; retry with one appended (a
		// trailing comment makes "does the body end with '.'" impossible
		// to decide without parsing, so parse-and-retry is the robust
		// check). Genuine syntax errors keep the first parse's message.
		if retried, rerr := turtle.ParseString(src + "\n."); rerr == nil {
			triples, err = retried, nil
		}
	}
	if err != nil {
		if te, ok := err.(*turtle.ParseError); ok {
			// Re-anchor the line number to the enclosing request.
			return nil, &UpdateError{Line: line + te.Line - 1 - headerLines, Msg: te.Msg}
		}
		return nil, err
	}
	for _, t := range triples {
		for _, term := range [3]rdf.Term{t.S, t.P, t.O} {
			if term.IsVar() {
				return nil, &UpdateError{Line: line, Msg: "variables are not allowed in DATA blocks"}
			}
			if del && term.Kind == rdf.KindBlank {
				return nil, &UpdateError{Line: line, Msg: "blank nodes are not allowed in DELETE DATA"}
			}
		}
	}
	return triples, nil
}
