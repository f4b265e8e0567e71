package qaserve

// The request body readers: /v1/answer reads the body whole into a
// pooled buffer and decodes it in one pass of a strict JSON reader for
// AnswerRequest, and /v1/update reads its SPARQL text through the same
// buffers.
//
// The reader keeps encoding/json's contract for AnswerRequest: it
// accepts and rejects exactly the bodies json.Unmarshal does and stores
// the same values. body_reference_test.go keeps the json.Unmarshal
// path as the oracle FuzzDecodeAnswerRequest holds it to.

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxBodyBytes bounds request bodies: questions are short, so 1 MiB is
// generous, and the limit keeps oversized bodies from being buffered
// before the in-flight limiter is ever consulted.
const maxBodyBytes = 1 << 20

// maxBodyDepth is how deeply arrays and objects may nest in a body:
// encoding/json's limit.
const maxBodyDepth = 10000

var (
	// errBodyTooLarge is decodeBody's answer to a body over maxBodyBytes.
	errBodyTooLarge = errors.New("qaserve: request body over the size limit")
	// errBodySyntax is decodeBody's answer to a body that is not one
	// JSON value, whitespace around it; nothing is stored.
	errBodySyntax = errors.New("qaserve: request body is not one JSON value")
	// errBodyType is decodeBody's answer to a value of the wrong JSON
	// type for its field (json.UnmarshalTypeError); the other fields
	// are still stored.
	errBodyType = errors.New("qaserve: request body field of the wrong type")
)

// bodyBufs recycles request-body buffers between requests.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeBody reads body, at most maxBodyBytes of it, and decodes the one
// JSON value it holds into v. Unlike a json.Decoder it rejects anything
// but whitespace after the value. The strings it stores in v are copies,
// so the buffer goes back to the pool.
func decodeBody(body io.Reader, v *AnswerRequest) error {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	b, err := readAtMost((*bp)[:0], body, maxBodyBytes)
	*bp = b
	if err != nil {
		return err
	}
	// Decode into a copy: a body found invalid part way through stores
	// nothing, as json.Unmarshal validates before it decodes.
	out := *v
	r := bodyReader{b: b}
	if !r.body(&out) {
		return errBodySyntax
	}
	*v = out
	if r.mistyped {
		return errBodyType
	}
	return nil
}

// The fields' JSON names. A key names a field when it equals the name
// under bytes.EqualFold, as encoding/json matches: "QUESTION" and
// "queſtion" both name question.
var (
	keyQuestion     = []byte("question")
	keyAllowPartial = []byte("allow_partial")
)

// bodyReader validates and decodes one body in a single pass. Each
// method reads the value at i and reports false on a syntax error, after
// which the reader is abandoned.
type bodyReader struct {
	b   []byte
	i   int
	buf []byte // a string that needed unescaping, decoded; reused
	// mistyped records a value of the wrong JSON type for its field,
	// which json.Unmarshal reports only once the rest is decoded.
	mistyped bool
}

// body reads the whole body: one value, whitespace around it.
func (r *bodyReader) body(v *AnswerRequest) bool {
	r.ws()
	var ok bool
	switch r.peek() {
	case '{':
		ok = r.object(v)
	case 'n':
		ok = r.lit("null") // null into a struct stores nothing
	default:
		r.mistyped = true
		ok = r.skip(0)
	}
	r.ws()
	return ok && r.i == len(r.b)
}

// object reads the request object, storing each field it names; the
// last of duplicate keys wins.
func (r *bodyReader) object(v *AnswerRequest) bool {
	const depth = 1
	return r.members(depth, func(key []byte) bool {
		switch {
		case bytes.EqualFold(key, keyQuestion):
			return r.str(&v.Question, depth)
		case bytes.EqualFold(key, keyAllowPartial):
			return r.boolean(&v.AllowPartial, depth)
		}
		return r.skip(depth)
	})
}

// members reads an object whose '{' is at i and that nests depth deep,
// calling value with each key once the reader stands on its value.
func (r *bodyReader) members(depth int, value func(key []byte) bool) bool {
	if depth > maxBodyDepth {
		return false
	}
	r.i++ // '{'
	r.ws()
	if r.peek() == '}' {
		r.i++
		return true
	}
	for {
		key, ok := r.quoted()
		if !ok {
			return false
		}
		r.ws()
		if r.peek() != ':' {
			return false
		}
		r.i++
		r.ws()
		if !value(key) {
			return false
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.i++
			r.ws()
		case '}':
			r.i++
			return true
		default:
			return false
		}
	}
}

// elements reads an array whose '[' is at i and that nests depth deep,
// calling value once the reader stands on each element.
func (r *bodyReader) elements(depth int, value func() bool) bool {
	if depth > maxBodyDepth {
		return false
	}
	r.i++ // '['
	r.ws()
	if r.peek() == ']' {
		r.i++
		return true
	}
	for {
		if !value() {
			return false
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.i++
			r.ws()
		case ']':
			r.i++
			return true
		default:
			return false
		}
	}
}

// str reads a value for a string field: a string is stored, null
// leaves the field as it is, and anything else is a type error.
func (r *bodyReader) str(dst *string, depth int) bool {
	switch r.peek() {
	case '"':
		s, ok := r.quoted()
		if ok {
			*dst = string(s)
		}
		return ok
	case 'n':
		return r.lit("null")
	}
	r.mistyped = true
	return r.skip(depth)
}

// boolean reads a value for a bool field, as str does.
func (r *bodyReader) boolean(dst *bool, depth int) bool {
	switch r.peek() {
	case 't':
		*dst = true
		return r.lit("true")
	case 'f':
		*dst = false
		return r.lit("false")
	case 'n':
		return r.lit("null")
	}
	r.mistyped = true
	return r.skip(depth)
}

// skip validates the value at i, which nests depth deep, and steps past
// it.
func (r *bodyReader) skip(depth int) bool {
	switch r.peek() {
	case '{':
		depth++
		return r.members(depth, func([]byte) bool { return r.skip(depth) })
	case '[':
		depth++
		return r.elements(depth, func() bool { return r.skip(depth) })
	case '"':
		_, ok := r.quoted()
		return ok
	case 't':
		return r.lit("true")
	case 'f':
		return r.lit("false")
	case 'n':
		return r.lit("null")
	}
	return r.number()
}

// quoted reads the string at i and returns its text, unescaped. The
// text aliases the body or r.buf, so it is good until the next string.
// Like encoding/json, it turns each byte that is not part of valid
// UTF-8, and each \u escape of a lone surrogate, into U+FFFD.
func (r *bodyReader) quoted() ([]byte, bool) {
	if r.peek() != '"' {
		return nil, false
	}
	r.i++
	start := r.i
	// The common string is plain ASCII: a slice of the body.
	for r.i < len(r.b) {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], true
		case c < ' ':
			return nil, false
		case c == '\\' || c >= utf8.RuneSelf:
			return r.unquote(start)
		}
		r.i++
	}
	return nil, false
}

// unquote finishes a string that holds an escape or a non-ASCII byte,
// decoding it into r.buf.
func (r *bodyReader) unquote(start int) ([]byte, bool) {
	buf := append(r.buf[:0], r.b[start:r.i]...)
	for r.i < len(r.b) {
		c := r.b[r.i]
		switch {
		case c == '"':
			r.i++
			r.buf = buf
			return buf, true
		case c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			rr, n := utf8.DecodeRune(r.b[r.i:])
			buf = utf8.AppendRune(buf, rr)
			r.i += n
			continue
		case c != '\\':
			buf = append(buf, c)
			r.i++
			continue
		}
		r.i++ // '\\'
		switch e := r.peek(); e {
		case '"', '\\', '/':
			buf = append(buf, e)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			rr, ok := hex4(r.b[r.i+1:])
			if !ok {
				return nil, false
			}
			r.i += 4
			if utf16.IsSurrogate(rr) {
				// A pair is a surrogate and the \u escape after it,
				// decoding together; anything else makes this one
				// U+FFFD, and the escape after it is read on its own.
				rr1, ok := rune(-1), false
				if bytes.HasPrefix(r.b[r.i+1:], []byte(`\u`)) {
					rr1, ok = hex4(r.b[r.i+3:])
				}
				if rr = utf16.DecodeRune(rr, rr1); ok && rr != unicode.ReplacementChar {
					r.i += 6
				}
			}
			buf = utf8.AppendRune(buf, rr)
		default:
			return nil, false
		}
		r.i++
	}
	return nil, false
}

// hex4 decodes the four hex digits that start b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | rune(c)
	}
	return v, true
}

// number steps past the JSON number at i:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *bodyReader) number() bool {
	if r.peek() == '-' {
		r.i++
	}
	switch c := r.peek(); {
	case c == '0':
		r.i++
	case '1' <= c && c <= '9':
		r.digits()
	default:
		return false
	}
	if r.peek() == '.' {
		r.i++
		if !r.digits() {
			return false
		}
	}
	if c := r.peek(); c == 'e' || c == 'E' {
		r.i++
		if c := r.peek(); c == '+' || c == '-' {
			r.i++
		}
		if !r.digits() {
			return false
		}
	}
	return true
}

// digits steps past a run of decimal digits and reports whether there
// was at least one.
func (r *bodyReader) digits() bool {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// lit steps past the literal word at i.
func (r *bodyReader) lit(word string) bool {
	if len(r.b)-r.i < len(word) || string(r.b[r.i:r.i+len(word)]) != word {
		return false
	}
	r.i += len(word)
	return true
}

// ws steps past JSON whitespace.
func (r *bodyReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// peek returns the byte at i, or 0 at the end of the body: no byte a
// value may start or go on with.
func (r *bodyReader) peek() byte {
	if r.i < len(r.b) {
		return r.b[r.i]
	}
	return 0
}

// readString reads body, at most limit bytes of it, through a pooled
// buffer and returns it as a string of its own.
func readString(body io.Reader, limit int) (string, error) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	b, err := readAtMost((*bp)[:0], body, limit)
	*bp = b
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// readAtMost appends r's bytes to b until EOF, failing with
// errBodyTooLarge once more than limit have arrived. It never asks r for
// more than limit+1 bytes: the one past the limit is how it learns that
// the body is too long.
func readAtMost(b []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := r.Read(b[len(b):min(cap(b), limit+1)])
		b = b[:len(b)+n]
		switch {
		case len(b) > limit:
			return b, errBodyTooLarge
		case err == io.EOF:
			return b, nil
		case err != nil:
			return b, err
		}
	}
}
