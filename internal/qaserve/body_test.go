package qaserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// limitProbe serves a body to a decoder and fails the test if it is
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

// errClass names the class of a decode error, the same for decodeBody's
// errors and the json.Unmarshal errors they stand for.
func errClass(err error) string {
	var syntax *json.SyntaxError
	var mistyped *json.UnmarshalTypeError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errBodyTooLarge):
		return "too large"
	case errors.Is(err, errBodySyntax), errors.As(err, &syntax):
		return "syntax"
	case errors.Is(err, errBodyType), errors.As(err, &mistyped):
		return "type"
	}
	return err.Error()
}

// checkDecode holds decodeBody to its oracle for one body: it never
// asks past the limit; it accepts and rejects what decodeBodyReference
// (json.Unmarshal) does, with the same class of error, and stores the
// same values; and an endless body is refused at the limit.
func checkDecode(t *testing.T, body []byte) {
	var got, want AnswerRequest
	err := decodeBody(&limitProbe{t: t, r: bytes.NewReader(body)}, &got)
	werr := decodeBodyReference(&limitProbe{t: t, r: bytes.NewReader(body)}, &want)
	if errClass(err) != errClass(werr) || !reflect.DeepEqual(got, want) {
		t.Errorf("%q decodes to %#v (%v), json.Unmarshal %#v (%v)", body, got, err, want, werr)
	}
	var endless AnswerRequest
	if err := decodeBody(&limitProbe{t: t, r: io.MultiReader(bytes.NewReader(body), spaces{})}, &endless); !errors.Is(err, errBodyTooLarge) {
		t.Errorf("%q then endless whitespace: err %v, want errBodyTooLarge", body, err)
	}
}

// FuzzDecodeAnswerRequest: the /v1/answer body reader against
// json.Unmarshal, on every body. The seeds below are the plain shapes;
// testdata/fuzz/FuzzDecodeAnswerRequest holds the corner cases:
// surrogate pairs, lone surrogates and \/, invalid UTF-8, folded keys
// ("QUESTION", "queſtion"), duplicate keys, unknown nested values, a
// type error beside a valid field, nulls, nesting at and past the
// 10000-level limit, and number forms.
func FuzzDecodeAnswerRequest(f *testing.F) {
	for _, s := range []string{
		`{"question":"Which book is written by Orhan Pamuk?"}`, "{\"question\":\"x\"}  \r\n\t",
		`{"question":"x"} junk`, `{"question":"x"}{"question":"y"}`, ` {"question":"a","question":"b"} `,
		`{"questions":["a","b"],"allow_partial":true}`, `{"questions":[]}`, `{"question":1}`,
		`{"allow_partial":"yes"}`, "{\"question\":\"  \xff <&>\"}", `{"Question":"case"}`,
		``, ` `, `null`, `[`, `{`, `"str"`, `{"question":"x"}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeBodyValues pins what the reader stores where encoding/json's
// rules are least obvious, beside the oracle the fuzzer checks. The
// "questions" rows are unknown keys whose arrays the reader skips.
func TestDecodeBodyValues(t *testing.T) {
	for _, c := range []struct {
		body  string
		want  AnswerRequest
		class string
	}{
		{`{"QUESTION":"a","queſtion":"b"}`, AnswerRequest{Question: "b"}, "ok"},
		{`{"questİon":"a"}`, AnswerRequest{}, "ok"},
		{`{"question":"\ud83d\ude00 \ud83d \ude00\ud83dA \/"}`, AnswerRequest{Question: "😀 � ��A /"}, "ok"},
		{"{\"question\":\"\xed\xa0\x80\xe2\x82\"}", AnswerRequest{Question: strings.Repeat("�", 5)}, "ok"},
		{`{"question":"q","question":null,"allow_partial":true,"allow_partial":null}`, AnswerRequest{Question: "q", AllowPartial: true}, "ok"},
		{`{"question":1,"allow_partial":true}`, AnswerRequest{AllowPartial: true}, "type"},
		{`{"questions":["a",2,null,"b"],"x":{"y":[{}]}}`, AnswerRequest{}, "ok"},
		{`{"questions":["a","b","c"],"questions":["x"],"questions":[null,null]}`, AnswerRequest{}, "ok"},
		{`{"questions":["a"],"questions":null}`, AnswerRequest{}, "ok"},
		{`{"questions":["a"],"questions":[]}`, AnswerRequest{}, "ok"},
		{`{"question":"q","x":01}`, AnswerRequest{}, "syntax"},
		{`{"question":"q","x":-0.5e+10}`, AnswerRequest{Question: "q"}, "ok"},
		{`"q"`, AnswerRequest{}, "type"},
		{`null`, AnswerRequest{}, "ok"},
		{`{"question":"q"} x`, AnswerRequest{}, "syntax"},
	} {
		var got AnswerRequest
		err := decodeBody(strings.NewReader(c.body), &got)
		if !reflect.DeepEqual(got, c.want) || errClass(err) != c.class {
			t.Errorf("%s: %#v (%v), want %#v (%s)", c.body, got, err, c.want, c.class)
		}
	}
}

// TestDecodeBodyDepth: arrays and objects nest at most 10000 deep.
func TestDecodeBodyDepth(t *testing.T) {
	nest := func(n int) string {
		return `{"question":"q","x":` + strings.Repeat(`[{"y":`, n/2-1) + `[]` + strings.Repeat(`}]`, n/2-1) + `}`
	}
	var req AnswerRequest
	if err := decodeBody(strings.NewReader(nest(10000)), &req); err != nil || req.Question != "q" {
		t.Errorf("10000 deep: %+v, %v", req, err)
	}
	if err := decodeBody(strings.NewReader(nest(10002)), &req); !errors.Is(err, errBodySyntax) {
		t.Errorf("10002 deep: %v, want errBodySyntax", err)
	}
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

// BenchmarkDecodeBody: one /v1/answer body through the reader and
// through the json.Unmarshal path it replaced.
func BenchmarkDecodeBody(b *testing.B) {
	body := `{"question":"Which book is written by Orhan Pamuk?"}`
	for _, c := range []struct {
		name   string
		decode func(io.Reader, *AnswerRequest) error
	}{
		{"reader", decodeBody},
		{"reference", func(r io.Reader, v *AnswerRequest) error { return decodeBodyReference(r, v) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			r := strings.NewReader(body)
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				var req AnswerRequest
				if err := c.decode(r, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
