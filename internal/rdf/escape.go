package rdf

import (
	"fmt"
	"unicode/utf8"
)

// DecodeEscape decodes the string escape that s starts with, backslash
// included: an ECHAR (\t \b \n \r \f \" \' \\) or a UCHAR (\uXXXX or
// \UXXXXXXXX), the escapes N-Triples, Turtle and SPARQL strings share.
// It returns the rune and the length of the escape in bytes.
func DecodeEscape(s string) (rune, int, error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("dangling escape")
	}
	switch s[1] {
	case 't':
		return '\t', 2, nil
	case 'b':
		return '\b', 2, nil
	case 'n':
		return '\n', 2, nil
	case 'r':
		return '\r', 2, nil
	case 'f':
		return '\f', 2, nil
	case '"', '\'', '\\':
		return rune(s[1]), 2, nil
	case 'u':
		return hexRune(s, 4)
	case 'U':
		return hexRune(s, 8)
	}
	return 0, 0, fmt.Errorf("unknown escape \\%c", s[1])
}

// hexRune decodes the UCHAR of n hex digits that s starts with.
func hexRune(s string, n int) (rune, int, error) {
	if len(s) < 2+n {
		return 0, 0, fmt.Errorf("truncated \\%c escape", s[1])
	}
	var v rune
	for i := 2; i < 2+n; i++ {
		c := s[i]
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, 0, fmt.Errorf("invalid hex digit %q", c)
		}
		v = v<<4 | d
	}
	if !utf8.ValidRune(v) {
		return 0, 0, fmt.Errorf("invalid code point %#x", v)
	}
	return v, 2 + n, nil
}
