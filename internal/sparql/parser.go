package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Parse parses a SPARQL query string into a Query.
func Parse(src string) (*Query, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after query", p.tok)
	}
	return q, nil
}

type parser struct {
	lex *lexer
	tok token
	// queryPrefixes points at the current query's PREFIX table so that
	// prefixed names resolve against local declarations first.
	queryPrefixes map[string]string
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) acceptKeyword(kw string) (bool, error) {
	if p.tok.kind == tokKeyword && p.tok.text == kw {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expectKeyword(kw string) error {
	ok, err := p.acceptKeyword(kw)
	if err != nil {
		return err
	}
	if !ok {
		return p.errf("expected %s, found %s", kw, p.tok)
	}
	return nil
}

func (p *parser) acceptPunct(s string) (bool, error) {
	if p.tok.kind == tokPunct && p.tok.text == s {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expectPunct(s string) error {
	ok, err := p.acceptPunct(s)
	if err != nil {
		return err
	}
	if !ok {
		return p.unexpected(strconv.Quote(s))
	}
	return nil
}

func (p *parser) query() (*Query, error) {
	q := &Query{Limit: -1, Prefixes: map[string]string{}}
	p.queryPrefixes = q.Prefixes
	// Prologue.
	for {
		ok, err := p.acceptKeyword("PREFIX")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if p.tok.kind != tokPName {
			return nil, p.errf("expected prefixed name in PREFIX, found %s", p.tok)
		}
		name := p.tok.text[:strings.IndexByte(p.tok.text, ':')]
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIRI {
			return nil, p.errf("expected IRI in PREFIX, found %s", p.tok)
		}
		q.Prefixes[name] = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}

	switch {
	case p.tok.kind == tokKeyword && p.tok.text == "SELECT":
		if err := p.advance(); err != nil {
			return nil, err
		}
		q.Form = FormSelect
		if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
			return nil, err
		} else if ok {
			q.Distinct = true
		}
		if ok, err := p.acceptPunct("*"); err != nil {
			return nil, err
		} else if ok {
			q.Star = true
		} else if p.tok.kind == tokPunct && p.tok.text == "(" {
			count, err := p.countProjection()
			if err != nil {
				return nil, err
			}
			q.Count = count
		} else {
			for p.tok.kind == tokVar {
				q.Projection = append(q.Projection, p.tok.text)
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if len(q.Projection) == 0 {
				return nil, p.errf("SELECT needs variables, '*' or (COUNT(...) AS ?v), found %s", p.tok)
			}
		}
		if err := p.expectKeyword("WHERE"); err != nil {
			return nil, err
		}
	case p.tok.kind == tokKeyword && p.tok.text == "ASK":
		if err := p.advance(); err != nil {
			return nil, err
		}
		q.Form = FormAsk
		// WHERE is optional for ASK.
		if _, err := p.acceptKeyword("WHERE"); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected SELECT or ASK, found %s", p.tok)
	}

	if err := p.groupGraphPattern(q); err != nil {
		return nil, err
	}
	if err := p.solutionModifiers(q); err != nil {
		return nil, err
	}
	return q, nil
}

// countProjection parses "(COUNT( DISTINCT? (?v|*) ) AS ?alias)".
func (p *parser) countProjection() (*CountSpec, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("COUNT"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	spec := &CountSpec{}
	if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		spec.Distinct = true
	}
	switch {
	case p.tok.kind == tokPunct && p.tok.text == "*":
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.tok.kind == tokVar:
		spec.Var = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("COUNT expects ?var or '*', found %s", p.tok)
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokVar {
		return nil, p.errf("AS expects a variable, found %s", p.tok)
	}
	spec.As = p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return spec, nil
}

func (p *parser) groupGraphPattern(q *Query) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for {
		if ok, err := p.acceptPunct("}"); err != nil {
			return err
		} else if ok {
			return nil
		}
		if ok, err := p.acceptKeyword("FILTER"); err != nil {
			return err
		} else if ok {
			f, err := p.filter()
			if err != nil {
				return err
			}
			q.Filters = append(q.Filters, f)
		} else if err := p.triplesSameSubject(q); err != nil {
			return err
		}
		// Optional '.' after a filter or between triple blocks.
		if _, err := p.acceptPunct("."); err != nil {
			return err
		}
	}
}

// triplesSameSubject parses "subject predicate object (',' object)* (';' predicate objectlist)*".
func (p *parser) triplesSameSubject(q *Query) error {
	s, err := p.graphTerm("subject")
	if err != nil {
		return err
	}
	for {
		pred, err := p.verb()
		if err != nil {
			return err
		}
		for {
			o, err := p.graphTerm("object")
			if err != nil {
				return err
			}
			q.Patterns = append(q.Patterns, rdf.Triple{S: s, P: pred, O: o})
			if ok, err := p.acceptPunct(","); err != nil {
				return err
			} else if !ok {
				break
			}
		}
		if ok, err := p.acceptPunct(";"); err != nil {
			return err
		} else if !ok {
			return nil
		}
		// Allow trailing ';' before '.' or '}'.
		if p.tok.kind == tokPunct && (p.tok.text == "." || p.tok.text == "}") {
			return nil
		}
	}
}

func (p *parser) verb() (rdf.Term, error) {
	if p.tok.kind == tokPunct && p.tok.text == "a" {
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return rdf.Type(), nil
	}
	return p.graphTerm("predicate")
}

// graphTerm parses a term usable in a triple pattern.
func (p *parser) graphTerm(role string) (rdf.Term, error) {
	tok := p.tok
	switch tok.kind {
	case tokVar:
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewVar(tok.text), nil
	case tokIRI:
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(tok.text), nil
	case tokPName:
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return p.resolvePName(tok.text)
	case tokBlank:
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBlank(tok.text), nil
	case tokString:
		return p.literalFrom(tok)
	case tokNumber, tokBoolean:
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(tok.text, tok.datatype), nil
	default:
		return rdf.Term{}, p.unexpected(role + " term")
	}
}

// literalFrom consumes a string token plus optional @lang / ^^datatype.
func (p *parser) literalFrom(tok token) (rdf.Term, error) {
	if err := p.advance(); err != nil {
		return rdf.Term{}, err
	}
	switch {
	case p.tok.kind == tokLangTag:
		lang := p.tok.text
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLangLiteral(tok.text, lang), nil
	case p.tok.kind == tokPunct && p.tok.text == "^^":
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		switch p.tok.kind {
		case tokIRI:
			dt := p.tok.text
			if err := p.advance(); err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewTypedLiteral(tok.text, dt), nil
		case tokPName:
			t, err := p.resolvePName(p.tok.text)
			if err != nil {
				return rdf.Term{}, err
			}
			if err := p.advance(); err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewTypedLiteral(tok.text, t.Value), nil
		default:
			return rdf.Term{}, p.errf("expected datatype IRI after ^^, found %s", p.tok)
		}
	}
	return rdf.NewLiteral(tok.text), nil
}

func (p *parser) resolvePName(qname string) (rdf.Term, error) {
	i := strings.IndexByte(qname, ':')
	prefix, local := qname[:i], qname[i+1:]
	// Query-local prefixes take precedence; fall back to rdf's fixed table.
	if q := p.queryPrefixes; q != nil {
		if ns, ok := q[prefix]; ok {
			return rdf.NewIRI(ns + local), nil
		}
	}
	if iri, ok := rdf.Expand(qname); ok {
		return rdf.NewIRI(iri), nil
	}
	return rdf.Term{}, p.errf("unknown prefix %q", prefix)
}

func (p *parser) solutionModifiers(q *Query) error {
	if ok, err := p.acceptKeyword("ORDER"); err != nil {
		return err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			key, ok, err := p.orderKey()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, key)
		}
		if len(q.OrderBy) == 0 {
			return p.errf("ORDER BY needs at least one key")
		}
	}
	for {
		if ok, err := p.acceptKeyword("LIMIT"); err != nil {
			return err
		} else if ok {
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			q.Limit = n
			continue
		}
		if ok, err := p.acceptKeyword("OFFSET"); err != nil {
			return err
		} else if ok {
			n, err := p.expectInt()
			if err != nil {
				return err
			}
			q.Offset = n
			continue
		}
		return nil
	}
}

func (p *parser) orderKey() (OrderKey, bool, error) {
	switch {
	case p.tok.kind == tokKeyword && (p.tok.text == "ASC" || p.tok.text == "DESC"):
		desc := p.tok.text == "DESC"
		if err := p.advance(); err != nil {
			return OrderKey{}, false, err
		}
		if err := p.expectPunct("("); err != nil {
			return OrderKey{}, false, err
		}
		e, err := p.operand()
		if err != nil {
			return OrderKey{}, false, err
		}
		return OrderKey{Expr: e, Desc: desc}, true, p.expectPunct(")")
	case p.tok.kind == tokVar:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return OrderKey{}, false, err
		}
		return OrderKey{Expr: &VarExpr{Name: name}}, true, nil
	default:
		return OrderKey{}, false, nil
	}
}

func (p *parser) expectInt() (int, error) {
	if p.tok.kind != tokNumber || p.tok.datatype != rdf.XSDInteger || !isDigit(p.tok.text[0]) {
		return 0, p.errf("expected integer, found %s", p.tok)
	}
	n, err := strconv.Atoi(p.tok.text)
	if err != nil {
		return 0, p.errf("integer %s does not fit in an int", p.tok.text)
	}
	return n, p.advance()
}

// relops are the comparison operators a FILTER may use.
var relops = map[string]bool{"=": true, "!=": true, "<": true, ">": true, "<=": true, ">=": true}

// unsupported names, by its first token, the SPARQL syntax outside the
// subset that the parser meets where a term, an operator or punctuation
// was expected. The lexer refuses the other operators.
var unsupported = map[string]string{
	"{": "a nested group or UNION",
	"(": "a nested expression",
	"*": "arithmetic (*)",
}

// unexpected reports the current token where want was expected, naming
// the construct it starts when that construct is unsupported.
func (p *parser) unexpected(want string) error {
	if what, ok := unsupported[p.tok.text]; ok && p.tok.kind == tokPunct {
		return p.errf("%s is unsupported", what)
	}
	return p.errf("expected %s, found %s", want, p.tok)
}

// filter parses a FILTER's "( operand relop operand )".
func (p *parser) filter() (*Comparison, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	op := p.tok.text
	if p.tok.kind != tokPunct || !relops[op] {
		return nil, p.unexpected("a comparison operator")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &Comparison{Op: op, Left: left, Right: right}, p.expectPunct(")")
}

// operand parses a FILTER operand or an ORDER BY key: a variable or a
// constant term.
func (p *parser) operand() (Expr, error) {
	t, err := p.graphTerm("variable or constant")
	if err != nil {
		return nil, err
	}
	if t.IsVar() {
		return &VarExpr{Name: t.Value}, nil
	}
	return &TermExpr{Term: t}, nil
}
