package sparql

import (
	"fmt"
	"regexp"
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

// MustParse parses src and panics on error; for tests and fixed queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
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
		return p.errf("expected %q, found %s", s, p.tok)
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
		} else if ok, err := p.acceptKeyword("REDUCED"); err != nil {
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
			e, err := p.brackettedOrCallExpr()
			if err != nil {
				return err
			}
			q.Filters = append(q.Filters, e)
			// Optional '.' after a filter.
			if _, err := p.acceptPunct("."); err != nil {
				return err
			}
			continue
		}
		if ok, err := p.acceptKeyword("OPTIONAL"); err != nil {
			return err
		} else if ok {
			block, err := p.bareGroup()
			if err != nil {
				return err
			}
			q.Optionals = append(q.Optionals, block)
			if _, err := p.acceptPunct("."); err != nil {
				return err
			}
			continue
		}
		if p.tok.kind == tokPunct && p.tok.text == "{" {
			// { A } UNION { B } (UNION { C })*
			first, err := p.bareGroup()
			if err != nil {
				return err
			}
			block := [][]rdf.Triple{first}
			for {
				ok, err := p.acceptKeyword("UNION")
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				branch, err := p.bareGroup()
				if err != nil {
					return err
				}
				block = append(block, branch)
			}
			if len(block) == 1 {
				// A plain nested group: inline its patterns.
				q.Patterns = append(q.Patterns, first...)
			} else {
				q.Unions = append(q.Unions, block)
			}
			if _, err := p.acceptPunct("."); err != nil {
				return err
			}
			continue
		}
		if err := p.triplesSameSubject(q); err != nil {
			return err
		}
		// Optional '.' between triple blocks.
		if _, err := p.acceptPunct("."); err != nil {
			return err
		}
	}
}

// bareGroup parses "{ triples }" with no nested structure, returning
// the triple patterns.
func (p *parser) bareGroup() ([]rdf.Triple, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sub := &Query{Limit: -1, Prefixes: p.queryPrefixes}
	for {
		if ok, err := p.acceptPunct("}"); err != nil {
			return nil, err
		} else if ok {
			return sub.Patterns, nil
		}
		if err := p.triplesSameSubject(sub); err != nil {
			return nil, err
		}
		if _, err := p.acceptPunct("."); err != nil {
			return nil, err
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
		return rdf.Term{}, p.errf("expected %s term, found %s", role, tok)
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
		e, err := p.brackettedOrCallExpr()
		if err != nil {
			return OrderKey{}, false, err
		}
		return OrderKey{Expr: e, Desc: desc}, true, nil
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
	n := 0
	for _, c := range p.tok.text {
		n = n*10 + int(c-'0')
	}
	return n, p.advance()
}

// brackettedOrCallExpr parses either "( Expr )" or "BUILTIN(args)".
func (p *parser) brackettedOrCallExpr() (Expr, error) {
	if p.tok.kind == tokKeyword && builtinArity[p.tok.text] != 0 {
		return p.primaryExpr()
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.acceptPunct("||")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "||", Left: left, Right: right}
	}
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.relExpr()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.acceptPunct("&&")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "&&", Left: left, Right: right}
	}
}

func (p *parser) relExpr() (Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		ok, err := p.acceptPunct(op)
		if err != nil {
			return nil, err
		}
		if ok {
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) addExpr() (Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		if ok, err := p.acceptPunct("+"); err != nil {
			return nil, err
		} else if ok {
			op = "+"
		} else if ok, err := p.acceptPunct("-"); err != nil {
			return nil, err
		} else if ok {
			op = "-"
		} else if p.tok.kind == tokNumber && !isDigit(p.tok.text[0]) && p.tok.text[0] != '.' {
			// "?a -5": the lexer reads the sign into the number, as
			// SPARQL's does; here it is the operator.
			op = p.tok.text[:1]
			p.tok.text = p.tok.text[1:]
		} else {
			return left, nil
		}
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		if ok, err := p.acceptPunct("*"); err != nil {
			return nil, err
		} else if ok {
			op = "*"
		} else if ok, err := p.acceptPunct("/"); err != nil {
			return nil, err
		} else if ok {
			op = "/"
		} else {
			return left, nil
		}
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if ok, err := p.acceptPunct("!"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "!", Expr: e}, nil
	}
	if ok, err := p.acceptPunct("-"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.primaryExpr()
}

// builtinArity maps builtin names to their arity; -1 means variadic (2-3).
var builtinArity = map[string]int{
	"REGEX": -1, "BOUND": 1, "STR": 1, "LANG": 1, "DATATYPE": 1,
	"ISIRI": 1, "ISURI": 1, "ISLITERAL": 1, "ISBLANK": 1, "ISNUMERIC": 1,
	"CONTAINS": 2, "STRSTARTS": 2, "STRENDS": 2, "LCASE": 1, "UCASE": 1,
	"STRLEN": 1, "LANGMATCHES": 2, "SAMETERM": 2,
}

// constantRegex compiles a REGEX's pattern and flags once, at parse
// time, when both are constant terms. It returns nil otherwise, and for
// a pattern that does not compile: evaluation compiles it then, and
// fails.
func constantRegex(args []Expr) *regexp.Regexp {
	var vals [2]Value
	for i, a := range args {
		te, ok := a.(*TermExpr)
		if !ok {
			return nil
		}
		vals[i] = termValue(te.Term)
	}
	return compileRegex(vals[:len(args)])
}

func (p *parser) primaryExpr() (Expr, error) {
	tok := p.tok
	switch {
	case tok.kind == tokPunct && tok.text == "(":
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil

	case tok.kind == tokKeyword && builtinArity[tok.text] != 0:
		fn := tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var args []Expr
		if !(p.tok.kind == tokPunct && p.tok.text == ")") {
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if ok, err := p.acceptPunct(","); err != nil {
					return nil, err
				} else if !ok {
					break
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		want := builtinArity[fn]
		if want > 0 && len(args) != want {
			return nil, p.errf("%s expects %d argument(s), got %d", fn, want, len(args))
		}
		if want == -1 && (len(args) < 2 || len(args) > 3) {
			return nil, p.errf("%s expects 2 or 3 arguments, got %d", fn, len(args))
		}
		call := &CallExpr{Fn: fn, Args: args}
		if fn == "REGEX" {
			call.re = constantRegex(args[1:])
		}
		return call, nil

	case tok.kind == tokVar:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &VarExpr{Name: tok.text}, nil

	case tok.kind == tokIRI:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &TermExpr{Term: rdf.NewIRI(tok.text)}, nil

	case tok.kind == tokPName:
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.resolvePName(tok.text)
		if err != nil {
			return nil, err
		}
		return &TermExpr{Term: t}, nil

	case tok.kind == tokString:
		t, err := p.literalFrom(tok)
		if err != nil {
			return nil, err
		}
		return &TermExpr{Term: t}, nil

	case tok.kind == tokNumber || tok.kind == tokBoolean:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &TermExpr{Term: rdf.NewTypedLiteral(tok.text, tok.datatype)}, nil

	default:
		return nil, p.errf("unexpected %s in expression", tok)
	}
}
