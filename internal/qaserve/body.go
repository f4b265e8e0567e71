package qaserve

// The request body readers: /v1/answer and /v1/answer/batch read the
// body whole into a pooled buffer and unmarshal it in one call, and
// /v1/update reads its SPARQL text through the same buffers.

import (
	"encoding/json"
	"errors"
	"io"
	"slices"
	"sync"
)

// maxBodyBytes bounds request bodies: questions are short, so 1 MiB is
// generous, and the limit keeps oversized bodies from being buffered
// before the in-flight limiter is ever consulted.
const maxBodyBytes = 1 << 20

// errBodyTooLarge is decodeBody's answer to a body over maxBodyBytes.
var errBodyTooLarge = errors.New("qaserve: request body over the size limit")

// bodyBufs recycles request-body buffers between requests.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeBody reads body, at most maxBodyBytes of it, and unmarshals the
// one JSON value it holds into v. Unlike a json.Decoder it rejects
// anything but whitespace after the value. The strings it stores in v
// are copies, so the buffer goes back to the pool.
func decodeBody(body io.Reader, v any) error {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	b, err := readAtMost((*bp)[:0], body, maxBodyBytes)
	*bp = b
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
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
