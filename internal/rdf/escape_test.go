package rdf

import "testing"

// TestDecodeEscape: every ECHAR and UCHAR, and the malformed escapes.
func TestDecodeEscape(t *testing.T) {
	for _, c := range []struct {
		src  string
		want rune
		n    int
	}{
		{`\t`, '\t', 2}, {`\b`, '\b', 2}, {`\n`, '\n', 2}, {`\r`, '\r', 2}, {`\f`, '\f', 2},
		{`\"`, '"', 2}, {`\'`, '\'', 2}, {`\\`, '\\', 2},
		{`\u00e9 rest`, 'é', 6}, {`\u00E9`, 'é', 6}, {`\U0001F600`, '😀', 10}, {`\U0010FFFF`, 0x10FFFF, 10},
	} {
		r, n, err := DecodeEscape(c.src)
		if err != nil || r != c.want || n != c.n {
			t.Errorf("%s: %q, %d, %v; want %q, %d", c.src, r, n, err, c.want, c.n)
		}
	}
	for _, src := range []string{`\`, `\q`, `\/`, `\u12`, `\u00G9`, `\uD800`, `\U00110000`, `\U0001F60`} {
		if r, n, err := DecodeEscape(src); err == nil {
			t.Errorf("%s: decoded %q, %d; want an error", src, r, n)
		}
	}
}
