package qaserve

import (
	"encoding/json"
	"io"
)

// The request body decoder the server used before body.go's reader: the
// body read whole into a pooled buffer under the limit, then
// json.Unmarshal. Kept verbatim as the oracle FuzzDecodeAnswerRequest
// holds decodeBody to.

// decodeBodyReference reads body, at most maxBodyBytes of it, and
// unmarshals the one JSON value it holds into v.
func decodeBodyReference(body io.Reader, v any) error {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	b, err := readAtMost((*bp)[:0], body, maxBodyBytes)
	*bp = b
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
