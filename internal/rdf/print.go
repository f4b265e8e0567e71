package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// The one printer of RDF term text, the inverse of the scanners in
// scan.go: whatever it prints, Turtle, N-Triples (in its full-IRI
// mode), SPARQL UPDATE's DATA blocks and the SPARQL query lexer read
// back as the same term. An IRI in a standard namespace prints as a
// prefixed name with PN_LOCAL escapes (res:Snow_\(novel\),
// res:Washington\,_D.C\.), any other IRI in angle brackets with UCHAR
// escapes, and a literal in double quotes with ECHAR and UCHAR escapes;
// every other byte, UTF-8 or not, is written as it is.

// String renders the term as Turtle / SPARQL text, IRIs in prefixed
// form where a standard prefix fits.
func (t Term) String() string {
	var buf [64]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the String form of the term to dst, for callers that
// assemble a larger text (a triple, a whole query) in one buffer.
func (t Term) AppendTo(dst []byte) []byte { return t.appendText(dst, false) }

func (t Term) appendText(dst []byte, full bool) []byte {
	switch t.Kind {
	case KindIRI:
		return appendIRI(dst, t.Value, full)
	case KindLiteral:
		dst = append(appendEscaped(append(dst, '"'), t.Value, &stringEscapes), '"')
		if t.Lang != "" {
			dst = append(dst, '@')
			return append(dst, t.Lang...)
		}
		if t.Datatype != "" {
			dst = append(dst, "^^"...)
			return appendIRI(dst, t.Datatype, full)
		}
		return dst
	case KindBlank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	case KindVar:
		dst = append(dst, '?')
		return append(dst, t.Value...)
	default:
		return append(dst, "<<zero term>>"...)
	}
}

// String renders the triple as a Turtle statement (with prefixes).
func (t Triple) String() string {
	var buf [128]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the String form of the triple to dst.
func (t Triple) AppendTo(dst []byte) []byte { return t.appendText(dst, false) }

func (t Triple) appendText(dst []byte, full bool) []byte {
	dst = append(t.S.appendText(dst, full), ' ')
	dst = append(t.P.appendText(dst, full), ' ')
	return append(t.O.appendText(dst, full), " ."...)
}

// WriteNTriples writes triples to w as N-Triples
// (https://www.w3.org/TR/n-triples/), the line-oriented format of the
// DBpedia dumps: one statement a line, every IRI in full. A triple with
// a variable or a zero term has no N-Triples form and is an error.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, t := range triples {
		if !t.IsGround() || t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
			return fmt.Errorf("rdf: %v has no N-Triples form", t)
		}
		line = append(t.appendText(line[:0], true), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendIRI appends iri as a prefixed name when a standard namespace
// matches and the local name can be written, as an IRIREF otherwise.
func appendIRI(dst []byte, iri string, full bool) []byte {
	if !full {
		if prefix, local, ok := shorten(iri); ok {
			n := len(dst)
			dst = append(dst, prefix...)
			dst = append(dst, ':')
			if dst, ok = appendLocal(dst, local); ok {
				return dst
			}
			dst = dst[:n]
		}
	}
	return append(appendEscaped(append(dst, '<'), iri, &iriSpecial), '>')
}

// appendLocal appends local as a PN_LOCAL: the characters PN_LOCAL_ESC
// covers that cannot stand raw where they are get a backslash, and a
// '%' stays raw only as the start of a %-escape. It reports false when
// some character has no PN_LOCAL form at all (a space, a quote, a
// combining mark first).
func appendLocal(dst []byte, local string) ([]byte, bool) {
	for i := 0; i < len(local); {
		c := local[i]
		if c >= utf8.RuneSelf {
			r, size := nameRune(local[i:])
			if !isPNChars(r) || i == 0 && !isPNCharsU(r) {
				return dst, false
			}
			dst = append(dst, local[i:i+size]...)
			i += size
			continue
		}
		raw := asciiPNChars[c] && (i > 0 || c != '-') ||
			c == '.' && i > 0 && i < len(local)-1 ||
			c == '%' && i+2 < len(local) && isHex(local[i+1]) && isHex(local[i+2])
		switch {
		case raw:
		case strings.IndexByte(localEscapes, c) >= 0:
			dst = append(dst, '\\')
		default:
			return dst, false
		}
		dst = append(dst, c)
		i++
	}
	return dst, true
}

// appendEscaped appends s to dst with each byte that escapes marks
// escaped: as a backslash and the ECHAR letter, or as its \u00XX UCHAR
// where the mark is 'u'.
func appendEscaped(dst []byte, s string, escapes *[256]byte) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		switch e := escapes[s[i]]; e {
		case 0:
			continue
		case 'u':
			const hex = "0123456789ABCDEF"
			dst = append(append(dst, s[start:i]...), '\\', 'u', '0', '0', hex[s[i]>>4], hex[s[i]&0xF])
		default:
			dst = append(append(dst, s[start:i]...), '\\', e)
		}
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// stringEscapes marks the bytes a STRING_LITERAL_QUOTE escapes: the
// quote, the backslash and the ASCII control characters, with their
// ECHAR where there is one.
var stringEscapes = func() (t [256]byte) {
	for c := 0; c < ' '; c++ {
		t[c] = 'u'
	}
	t[0x7F] = 'u'
	for _, e := range [...]string{`""`, `\\`, "\nn", "\rr", "\tt", "\bb", "\ff"} {
		t[e[0]] = e[1]
	}
	return t
}()
