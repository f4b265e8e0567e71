package rdf

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// The terminals of Turtle 1.1 and SPARQL 1.1 that write RDF terms
// (https://www.w3.org/TR/turtle/#terminals): IRIREF, PNAME_NS/PNAME_LN,
// the four string forms, LANGTAG, INTEGER/DECIMAL/DOUBLE with an
// optional sign, booleans and BLANK_NODE_LABEL. They are the one reader
// of RDF term text: the Turtle and N-Triples parser, SPARQL UPDATE's
// DATA blocks and the SPARQL query lexer all scan terms here, so a term
// reads the same in each. print.go writes the text they read.
//
// Each Scan function reads the terminal that s starts with and returns
// its length in bytes. On an error the length is the offset in s of the
// fault, so a caller can count the lines before it.

// ScanIRIRef reads the IRIREF that s starts with ('<' included) and
// returns the IRI with its \uXXXX and \UXXXXXXXX escapes decoded. A
// space or control character, '<', '"', '{', '}', '|', '^', '`' and a
// backslash that starts no UCHAR are refused: written raw, they end no
// IRI. An empty IRI is refused too, as there is no base to resolve it
// against.
func ScanIRIRef(s string) (iri string, n int, err error) {
	var b []byte // the decoded IRI, once an escape makes it differ from s
	for i := 1; i < len(s); {
		start := i
		for i < len(s) && iriSpecial[s[i]] == 0 {
			i++
		}
		if b != nil {
			b = append(b, s[start:i]...)
		}
		if i == len(s) {
			break
		}
		switch c := s[i]; c {
		case '>':
			if i == 1 {
				return "", 1, errors.New("empty IRI")
			}
			if b != nil {
				return string(b), i + 1, nil
			}
			return s[1:i], i + 1, nil
		case '\\':
			if i+1 < len(s) && s[i+1] != 'u' && s[i+1] != 'U' {
				return "", i, fmt.Errorf("escape \\%c in IRI (only \\u and \\U)", s[i+1])
			}
			r, m, err := DecodeEscape(s[i:])
			if err != nil {
				return "", i, fmt.Errorf("%v in IRI", err)
			}
			if b == nil {
				b = append(make([]byte, 0, len(s[:i])+8), s[1:i]...)
			}
			b = utf8.AppendRune(b, r)
			i += m
		default:
			return "", i, fmt.Errorf("%q in IRI (write it as \\u%04X)", c, c)
		}
	}
	return "", len(s), errors.New("unterminated IRI")
}

// iriSpecial marks with 'u' the bytes that end ScanIRIRef's run of
// plain IRI bytes: '>', '\' and the characters IRIREF refuses raw. The
// printer writes each as its UCHAR (appendEscaped).
var iriSpecial = func() (t [256]byte) {
	for c := 0; c <= ' '; c++ {
		t[c] = 'u'
	}
	for _, c := range []byte("<>\"{}|^`\\") {
		t[c] = 'u'
	}
	return t
}()

// ScanPrefixedName reads the prefixed name (PNAME_NS or PNAME_LN) that
// s starts with and returns its prefix and its local name, the PN_LOCAL
// escapes of the local name decoded: "\(" is '(', while a %-escape
// stays as written. A local name may hold '.' and ':' but not end with
// '.'. When s starts with no prefix followed by ':', n is 0 and err nil.
func ScanPrefixedName(s string) (prefix, local string, n int, err error) {
	i := scanPNPrefix(s)
	if i >= len(s) || s[i] != ':' {
		return "", "", 0, nil
	}
	local, m, err := scanPNLocal(s[i+1:])
	if err != nil {
		return "", "", i + 1 + m, err
	}
	return s[:i], local, i + 1 + m, nil
}

// scanPNPrefix returns the length of the PN_PREFIX s starts with, 0 if
// none: PN_CHARS_BASE ((PN_CHARS | '.')* PN_CHARS)?.
func scanPNPrefix(s string) int {
	r, size := nameRune(s)
	if !isPNCharsBase(r) {
		return 0
	}
	end := size
	for i := size; i < len(s); {
		r, size := nameRune(s[i:])
		switch {
		case r == '.':
		case isPNChars(r):
			end = i + size
		default:
			return end
		}
		i += size
	}
	return end
}

// localEscapes are the characters PN_LOCAL_ESC lets a backslash put in
// a local name.
const localEscapes = "_~.-!$&'()*+,;=/?#@%"

// scanPNLocal reads the PN_LOCAL s starts with, which may be empty:
// (PN_CHARS_U | ':' | [0-9] | PLX) ((PN_CHARS | '.' | ':' | PLX)*
// (PN_CHARS | ':' | PLX))?.
func scanPNLocal(s string) (string, int, error) {
	var b []byte // the decoded name, once an escape makes it differ from s
	end, bEnd := 0, 0
scan:
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			if i+1 >= len(s) || strings.IndexByte(localEscapes, s[i+1]) < 0 {
				return "", i, errors.New("invalid escape in local name")
			}
			if b == nil {
				b = append(make([]byte, 0, len(s[:i])+8), s[:i]...)
			}
			b = append(b, s[i+1])
			i += 2
		case c == '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return "", i, errors.New("malformed %-escape in local name")
			}
			if b != nil {
				b = append(b, s[i:i+3]...)
			}
			i += 3
		case c == '.' && i > 0:
			if b != nil {
				b = append(b, '.')
			}
			i++
			continue // a '.' may not end the name
		default:
			r, size := nameRune(s[i:])
			if !(isPNCharsU(r) || r == ':' || r >= '0' && r <= '9' || i > 0 && isPNChars(r)) {
				break scan
			}
			if b != nil {
				b = append(b, s[i:i+size]...)
			}
			i += size
		}
		end, bEnd = i, len(b)
	}
	if b != nil {
		return string(b[:bEnd]), end, nil
	}
	return s[:end], end, nil
}

// ScanString reads the string that s starts with: short or long
// (three quotes), in double or single quotes. It returns the lexical
// form with its escapes decoded. A short string holds no raw line
// break; a long one may span lines and hold unescaped quotes.
func ScanString(s string) (lex string, n int, err error) {
	q, delim := s[0], 1
	if len(s) >= 3 && s[1] == q && s[2] == q {
		delim = 3
	}
	var b []byte // the decoded string, once an escape makes it differ from s
	for i := delim; i < len(s); {
		c := s[i]
		switch {
		case c == q && (delim == 1 || strings.HasPrefix(s[i:], s[:3])):
			if b != nil {
				return string(b), i + delim, nil
			}
			return s[delim:i], i + delim, nil
		case c == '\\':
			r, m, err := DecodeEscape(s[i:])
			if err != nil {
				return "", i, err
			}
			if b == nil {
				b = append(make([]byte, 0, len(s[:i])+8), s[delim:i]...)
			}
			b = utf8.AppendRune(b, r)
			i += m
			continue
		case (c == '\n' || c == '\r') && delim == 1:
			return "", i, errors.New("line break in string (use \\n or a long string)")
		}
		if b != nil {
			b = append(b, c)
		}
		i++
	}
	return "", len(s), errors.New("unterminated string")
}

// ScanLangTag reads the LANGTAG that s starts with ('@' included) and
// returns the tag: [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*.
func ScanLangTag(s string) (tag string, n int, err error) {
	i := 1
	for i < len(s) && isAlpha(s[i]) {
		i++
	}
	if i == 1 {
		return "", 1, errors.New("empty language tag")
	}
	for i < len(s) && s[i] == '-' {
		j := i + 1
		for j < len(s) && (isAlpha(s[j]) || s[j] >= '0' && s[j] <= '9') {
			j++
		}
		if j == i+1 {
			return "", i, errors.New("language tag ends in '-'")
		}
		i = j
	}
	if r, _ := nameRune(s[i:]); isPNChars(r) {
		return "", i, fmt.Errorf("%q in language tag", r)
	}
	return s[1:i], i, nil
}

// ScanNumber reads the number that s starts with: an optional sign,
// then an INTEGER, a DECIMAL ([0-9]* '.' [0-9]+) or a DOUBLE (either
// with an exponent). It returns the literal, typed xsd:integer,
// xsd:decimal or xsd:double, with the text as written. A '.' that no
// digit or exponent follows is not part of the number: it ends a
// statement.
func ScanNumber(s string) (Term, int, error) {
	i := 0
	if s[0] == '+' || s[0] == '-' {
		i++
	}
	intStart := i
	i = skipDigits(s, i)
	intDigits := i - intStart
	dt := XSDInteger
	if i < len(s) && s[i] == '.' {
		if j := skipDigits(s, i+1); j > i+1 {
			i, dt = j, XSDDecimal
		} else if intDigits > 0 && exponentLen(s[i+1:]) > 0 {
			i++
		}
	}
	if intDigits == 0 && dt != XSDDecimal {
		return Term{}, i, fmt.Errorf("malformed number %q", s[:i])
	}
	if m := exponentLen(s[i:]); m > 0 {
		i, dt = i+m, XSDDouble
	}
	return NewTypedLiteral(s[:i], dt), i, nil
}

// exponentLen returns the length of the EXPONENT s starts with, 0 if
// none: [eE] [+-]? [0-9]+.
func exponentLen(s string) int {
	if len(s) == 0 || s[0] != 'e' && s[0] != 'E' {
		return 0
	}
	i := 1
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	if j := skipDigits(s, i); j > i {
		return j
	}
	return 0
}

func skipDigits(s string, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// ScanBoolean reads the boolean s starts with: "true" or "false" as a
// word of its own (StartsWithWord). n is 0 when s starts with neither.
func ScanBoolean(s string) (Term, int) {
	for _, w := range [2]string{"true", "false"} {
		if StartsWithWord(s, w) {
			return NewTypedLiteral(w, XSDBoolean), len(w)
		}
	}
	return Term{}, 0
}

// StartsWithWord reports whether s starts with the keyword w ("true",
// Turtle's "a") as a word of its own: not followed by a name character,
// and not the prefix of a prefixed name ("a:b", "true.x:y").
func StartsWithWord(s, w string) bool {
	if !strings.HasPrefix(s, w) {
		return false
	}
	if r, _ := nameRune(s[len(w):]); isPNChars(r) {
		return false
	}
	i := scanPNPrefix(s)
	return i == len(s) || s[i] != ':'
}

// ScanBlankNodeLabel reads the BLANK_NODE_LABEL that s starts with
// ("_:" included) and returns the label: (PN_CHARS_U | [0-9])
// ((PN_CHARS | '.')* PN_CHARS)?.
func ScanBlankNodeLabel(s string) (label string, n int, err error) {
	r, size := nameRune(s[2:])
	if !isPNCharsU(r) && !(r >= '0' && r <= '9') {
		return "", 2, errors.New("empty blank node label")
	}
	end := 2 + size
	for i := end; i < len(s); {
		r, size := nameRune(s[i:])
		switch {
		case r == '.':
		case isPNChars(r):
			end = i + size
		default:
			return s[2:end], end, nil
		}
		i += size
	}
	return s[2:end], end, nil
}

// nameRune decodes the rune s starts with; -1 at the end of s or on a
// byte that is not UTF-8, which no name holds. ASCII, which most names
// are, takes the inlined path.
func nameRune(s string) (rune, int) {
	if len(s) > 0 && s[0] < utf8.RuneSelf {
		return rune(s[0]), 1
	}
	return decodeNameRune(s)
}

func decodeNameRune(s string) (rune, int) {
	if len(s) == 0 {
		return -1, 0
	}
	r, size := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && size == 1 {
		return -1, 1
	}
	return r, size
}

// isPNCharsBase is PN_CHARS_BASE: the letters a name may start with.
func isPNCharsBase(r rune) bool {
	switch {
	case r < 0x80:
		return isAlpha(byte(r))
	case r >= 0xC0 && r <= 0xD6, r >= 0xD8 && r <= 0xF6, r >= 0xF8 && r <= 0x2FF,
		r >= 0x370 && r <= 0x37D, r >= 0x37F && r <= 0x1FFF, r >= 0x200C && r <= 0x200D,
		r >= 0x2070 && r <= 0x218F, r >= 0x2C00 && r <= 0x2FEF, r >= 0x3001 && r <= 0xD7FF,
		r >= 0xF900 && r <= 0xFDCF, r >= 0xFDF0 && r <= 0xFFFD, r >= 0x10000 && r <= 0xEFFFF:
		return true
	}
	return false
}

// isPNCharsU is PN_CHARS_U: PN_CHARS_BASE or '_'.
func isPNCharsU(r rune) bool { return r == '_' || isPNCharsBase(r) }

// isPNChars is PN_CHARS: the characters inside a name.
func isPNChars(r rune) bool {
	if r >= 0 && r < utf8.RuneSelf {
		return asciiPNChars[r]
	}
	return isPNCharsBase(r) || r == 0xB7 || r >= 0x300 && r <= 0x36F || r >= 0x203F && r <= 0x2040
}

// asciiPNChars marks the ASCII characters of PN_CHARS: letters, digits,
// '_' and '-'.
var asciiPNChars = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isAlpha(byte(c)) || c >= '0' && c <= '9' || c == '_' || c == '-'
	}
	return t
}()

func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
