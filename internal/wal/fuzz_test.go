package wal

import (
	"bytes"
	"testing"
)

// The payloads below passed their CRC32C, which proves only that the
// bytes are the ones written, not that a correct writer wrote them. The
// committed corpora under testdata/fuzz hold valid payloads with every
// term kind, truncations, huge counts, out-of-range IDs, duplicate
// dictionary terms and triples, and overlong varints.

// FuzzSegmentPayload: decoding a segment payload never panics, and a
// payload that decodes re-encodes to exactly its own bytes.
func FuzzSegmentPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeSegmentPayload(b)
		if err != nil {
			return
		}
		if got := encodeSegmentPayload(st.Snapshot()); !bytes.Equal(got, b) {
			t.Fatalf("decoded payload re-encodes differently:\n in %x\nout %x", b, got)
		}
	})
}

// FuzzRecordPayload: decoding a log record payload never panics, and a
// payload that decodes re-encodes to exactly its own bytes.
func FuzzRecordPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		gen, ops, err := decodePayload(b)
		if err != nil {
			return
		}
		if got := encodeRecord(gen, ops)[recordHeaderLen:]; !bytes.Equal(got, b) {
			t.Fatalf("decoded payload re-encodes differently:\n in %x\nout %x", b, got)
		}
	})
}
