package sparql

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// UpdateError reports a SPARQL UPDATE syntax error with position
// information.
type UpdateError struct {
	Line int
	Msg  string
}

func (e *UpdateError) Error() string {
	return fmt.Sprintf("sparql update: line %d: %s", e.Line, e.Msg)
}

// ParseUpdate parses a SPARQL 1.1 UPDATE request restricted to the
// ground-data forms the serving layer accepts:
//
//	PREFIX dbont: <http://dbpedia.org/ontology/>
//	DELETE DATA { dbont:X dbont:p "old" } ;
//	INSERT DATA { dbont:X dbont:p "new" . dbont:Y a dbont:C }
//
// Verbs are dispatched by name (INSERT DATA / DELETE DATA,
// case-insensitive), operations are separated by ';' and returned in
// request order, and each { } block is read by the turtle parser in its
// block mode, under the request's PREFIX map, up to the block's '}'
// (prefixed names, the 'a' keyword, ';'/',' lists and every literal
// form, read by the same term reader as a query). Pattern-based forms
// (INSERT/DELETE ... WHERE) are rejected: DATA blocks must be ground,
// so variables are a parse error, and blank nodes are additionally
// rejected in DELETE DATA (they denote fresh existentials and can never
// match stored data).
//
// The result is the ordered operation list ready for
// store.ApplyBatch — one atomic batch per request.
func ParseUpdate(src string) ([]store.BatchOp, error) {
	p := &updateParser{src: src, line: 1, prefixes: map[string]string{}}
	return p.parse()
}

type updateParser struct {
	src      string
	pos      int
	line     int
	prefixes map[string]string
}

func (p *updateParser) errf(format string, args ...any) error {
	return &UpdateError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *updateParser) eof() bool { return p.pos >= len(p.src) }

func (p *updateParser) skipWS() {
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
func (p *updateParser) keyword() string {
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

func (p *updateParser) parse() ([]store.BatchOp, error) {
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
// records it in the map the blocks resolve prefixed names against.
func (p *updateParser) prefixDecl() error {
	p.skipWS()
	name, local, n, err := rdf.ScanPrefixedName(p.src[p.pos:])
	if n == 0 || err != nil || local != "" {
		return p.errf("PREFIX: expected \"name:\"")
	}
	p.pos += n
	p.skipWS()
	if p.eof() || p.src[p.pos] != '<' {
		return p.errf("PREFIX %s: expected <iri>", name)
	}
	iri, n, err := rdf.ScanIRIRef(p.src[p.pos:])
	if err != nil {
		return p.errf("PREFIX %s: %v", name, err)
	}
	p.pos += n
	p.prefixes[name] = iri
	return nil
}

// dataBlock parses a braced triple block with the turtle parser's block
// mode, which stops at the block's '}'. The turtle grammar has no
// variables, so every triple is ground.
func (p *updateParser) dataBlock(del bool) ([]rdf.Triple, error) {
	p.skipWS()
	if p.eof() || p.src[p.pos] != '{' {
		return nil, p.errf("expected '{' after DATA")
	}
	line := p.line
	triples, end, endLine, err := turtle.ParseBlock(p.src, p.pos+1, p.line, p.prefixes)
	if err != nil {
		if te, ok := err.(*turtle.ParseError); ok {
			return nil, &UpdateError{Line: te.Line, Msg: te.Msg}
		}
		return nil, err
	}
	p.pos, p.line = end, endLine
	for _, t := range triples {
		if del && (t.S.IsBlank() || t.O.IsBlank()) {
			return nil, &UpdateError{Line: line, Msg: "blank nodes are not allowed in DELETE DATA"}
		}
	}
	return triples, nil
}
