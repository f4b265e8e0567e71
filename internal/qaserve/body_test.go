package qaserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// limitProbe serves a body to decodeBody and fails the test if it is
// ever asked for more than maxBodyBytes+1 bytes in all.
type limitProbe struct {
	t      *testing.T
	r      io.Reader
	served int
}

func (p *limitProbe) Read(b []byte) (int, error) {
	if p.served+len(b) > maxBodyBytes+1 {
		p.t.Fatalf("decodeBody asked for %d bytes after %d served: past the %d-byte limit", len(b), p.served, maxBodyBytes)
	}
	n, err := p.r.Read(b)
	p.served += n
	return n, err
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

var spaceBlock = bytes.Repeat([]byte{' '}, 64<<10)

func (spaces) Read(b []byte) (int, error) { return copy(b, spaceBlock), nil }

// oneObject reports whether body is one JSON object, whitespace around it.
func oneObject(body []byte) bool {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	return json.Valid(body) && len(trimmed) > 0 && trimmed[0] == '{'
}

// checkDecode holds decodeBody to its contract for one body and target
// type: it never asks past the limit; it accepts nothing a json.Decoder
// would have left trailing bytes behind; on one object plus whitespace
// it decodes what json.Decoder does; and an endless body is refused at
// the limit.
func checkDecode[T any](t *testing.T, body []byte) {
	var got, want T
	err := decodeBody(&limitProbe{t: t, r: bytes.NewReader(body)}, &got)
	if err == nil && !json.Valid(body) {
		t.Errorf("%T: accepted %q, which is not one JSON value", got, body)
	}
	if len(body) <= maxBodyBytes && oneObject(body) {
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%T: %q decodes to %+v (%v), json.Decoder %+v (%v)", got, body, got, err, want, werr)
		}
	}
	var endless T
	if err := decodeBody(&limitProbe{t: t, r: io.MultiReader(bytes.NewReader(body), spaces{})}, &endless); !errors.Is(err, errBodyTooLarge) {
		t.Errorf("%T: %q then endless whitespace: err %v, want errBodyTooLarge", endless, body, err)
	}
}

// FuzzDecodeAnswerRequest: the /v1/answer and /v1/answer/batch body
// decoder against json.Decoder, under the body limit.
func FuzzDecodeAnswerRequest(f *testing.F) {
	for _, s := range []string{
		`{"question":"Which book is written by Orhan Pamuk?"}`, "{\"question\":\"x\"}  \r\n\t",
		`{"question":"x"} junk`, `{"question":"x"}{"question":"y"}`, ` {"question":"a","question":"b"} `,
		`{"questions":["a","b"],"allow_partial":true}`, `{"questions":[]}`, `{"question":1}`,
		`{"allow_partial":"yes"}`, "{\"question\":\"  \xff <&>\"}", `{"Question":"case"}`,
		``, ` `, `null`, `[`, `{`, `"str"`, `{"question":"x"}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[AnswerRequest](t, body)
		checkDecode[BatchRequest](t, body)
	})
}

// TestDecodeBodyLimit: a body of exactly maxBodyBytes decodes; one byte
// more answers errBodyTooLarge.
func TestDecodeBodyLimit(t *testing.T) {
	obj := []byte(`{"question":"q"}`)
	body := append(obj, bytes.Repeat([]byte{' '}, maxBodyBytes-len(obj))...)
	var req AnswerRequest
	if err := decodeBody(&limitProbe{t: t, r: bytes.NewReader(body)}, &req); err != nil || req.Question != "q" {
		t.Fatalf("a body of exactly the limit: %+v, %v", req, err)
	}
	if err := decodeBody(&limitProbe{t: t, r: bytes.NewReader(append(body, ' '))}, &req); !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("one byte over the limit: %v, want errBodyTooLarge", err)
	}
}
