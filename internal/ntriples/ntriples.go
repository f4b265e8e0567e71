// Package ntriples writes the N-Triples serialisation of RDF graphs
// (https://www.w3.org/TR/n-triples/), the line-oriented format used by
// DBpedia dumps: one triple per line, full IRIs, blank nodes and plain,
// language-tagged and datatyped literals. It escapes what the shared term
// reader (rdf.ScanIRIRef, rdf.ScanString) refuses raw, so every line it
// writes reads back as the same triple through turtle.ParseNTriples,
// which is the reader.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

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

// escapeLiteral escapes a string's backslashes, quotes and line
// breaks, byte by byte so that bytes which are not UTF-8 pass through
// as they are.
func escapeLiteral(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
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
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// escapeIRI writes each character IRIREF refuses raw — a space or
// control character, '<', '>', '"', '{', '}', '|', '^', '`' and '\' —
// as its \uXXXX escape (rdf.NeedsIRIEscape).
func escapeIRI(s string) string {
	i := 0
	for i < len(s) && !rdf.NeedsIRIEscape(s[i]) {
		i++
	}
	if i == len(s) {
		return s
	}
	var sb strings.Builder
	sb.WriteString(s[:i])
	for ; i < len(s); i++ {
		if rdf.NeedsIRIEscape(s[i]) {
			fmt.Fprintf(&sb, `\u%04X`, s[i])
		} else {
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}
