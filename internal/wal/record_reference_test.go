package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// encodeRecordReference is the record encoder encodeRecord replaced: it
// grows the payload by appending and then copies it behind the header.
// It is kept as the oracle encodeRecord's bytes are held to.
func encodeRecordReference(gen uint64, ops []store.BatchOp) []byte {
	payload := make([]byte, 8, 64)
	binary.LittleEndian.PutUint64(payload, gen)
	payload = binary.AppendUvarint(payload, uint64(len(ops)))
	for _, op := range ops {
		flags := byte(0)
		if op.Delete {
			flags = 1
		}
		payload = append(payload, flags)
		payload = binary.AppendUvarint(payload, uint64(len(op.Triples)))
		for _, t := range op.Triples {
			payload = appendTerm(payload, t.S)
			payload = appendTerm(payload, t.P)
			payload = appendTerm(payload, t.O)
		}
	}
	rec := make([]byte, recordHeaderLen, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

// randomTerm draws a term of any kind whose strings run from empty to
// past 128 bytes, where a length prefix takes a second varint byte.
func randomTerm(r *rand.Rand) rdf.Term {
	str := func() string {
		switch r.Intn(4) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("é", r.Intn(8))
		default:
			return strings.Repeat("x", r.Intn(300))
		}
	}
	t := rdf.Term{Kind: rdf.Kind(r.Intn(5)), Value: str()}
	if t.Kind == rdf.KindLiteral {
		t.Lang, t.Datatype = str(), str()
	}
	return t
}

// TestEncodeRecordMatchesReference: over random batches — no ops, ops
// with no triples, triple counts and string lengths past one varint
// byte, generations up to 2^64-1 — encodeRecord writes exactly the
// reference's bytes, at exactly their length.
func TestEncodeRecordMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ops := make([]store.BatchOp, r.Intn(4))
		for j := range ops {
			ops[j].Delete = r.Intn(2) == 1
			n := r.Intn(6)
			if r.Intn(10) == 0 {
				n = 128 + r.Intn(200)
			}
			for k := 0; k < n; k++ {
				ops[j].Triples = append(ops[j].Triples, rdf.Triple{S: randomTerm(r), P: randomTerm(r), O: randomTerm(r)})
			}
		}
		gen := r.Uint64() >> r.Intn(64)
		got, want := encodeRecord(gen, ops), encodeRecordReference(gen, ops)
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d: encodeRecord differs from the reference:\n got %x\nwant %x", i, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("batch %d: record of %d bytes was given capacity %d", i, len(got), cap(got))
		}
	}
}
