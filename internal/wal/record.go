package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The on-disk encodings are specified in FORMAT.md; this file is their
// single implementation, shared by the log (batch records) and the
// segments (term dictionary + ID triples).

// castagnoli is the CRC32C polynomial table. CRC32C is the checksum
// hardware-accelerated on current CPUs and the conventional choice for
// storage formats.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordLen caps a record's payload length. A length prefix read
// from a torn or corrupt header can be arbitrary garbage; the cap keeps
// such garbage from driving a huge allocation before the CRC check can
// reject it.
const maxRecordLen = 64 << 20

// recordHeaderLen is the length prefix plus the checksum.
const recordHeaderLen = 8

// appendTerm encodes one RDF term: kind byte, then value, lang and
// datatype as uvarint-length-prefixed strings.
func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	for _, s := range [3]string{t.Value, t.Lang, t.Datatype} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// readUvarint decodes one uvarint, refusing the overlong forms
// binary.AppendUvarint never writes, so every value it accepts
// re-encodes to the bytes it came from.
func readUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, false
	}
	return v, b[n:], true
}

// readCount reads an element count and bounds it by the bytes left at
// minLen bytes per element, so a corrupt count that passed the checksum
// cannot size an allocation beyond what the payload could hold.
func readCount(b []byte, minLen int) (uint64, []byte, bool) {
	v, b, ok := readUvarint(b)
	if !ok || v > uint64(len(b)/minLen) {
		return 0, nil, false
	}
	return v, b, true
}

// minTermLen is the shortest encoded term: a kind byte and three empty
// strings.
const minTermLen = 4

// readTerm decodes one term, returning the remaining buffer.
func readTerm(b []byte) (rdf.Term, []byte, error) {
	if len(b) < 1 {
		return rdf.Term{}, nil, fmt.Errorf("wal: truncated term")
	}
	t := rdf.Term{Kind: rdf.Kind(b[0])}
	b = b[1:]
	for i := 0; i < 3; i++ {
		n, rest, ok := readUvarint(b)
		if !ok || uint64(len(rest)) < n {
			return rdf.Term{}, nil, fmt.Errorf("wal: truncated term string")
		}
		s := string(rest[:n])
		b = rest[n:]
		switch i {
		case 0:
			t.Value = s
		case 1:
			t.Lang = s
		case 2:
			t.Datatype = s
		}
	}
	return t, b, nil
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// termLen is the length of appendTerm's encoding of t.
func termLen(t rdf.Term) int {
	n := 1
	for _, s := range [3]string{t.Value, t.Lang, t.Datatype} {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// encodeRecord serialises one committed batch as a log record:
// length prefix, CRC32C of the payload, payload. The payload carries
// the generation the batch commits at followed by the ordered
// operations. The record is sized exactly first, so it is written in
// one allocation.
func encodeRecord(gen uint64, ops []store.BatchOp) []byte {
	n := 8 + uvarintLen(uint64(len(ops)))
	for _, op := range ops {
		n += 1 + uvarintLen(uint64(len(op.Triples)))
		for _, t := range op.Triples {
			n += termLen(t.S) + termLen(t.P) + termLen(t.O)
		}
	}
	rec := make([]byte, recordHeaderLen+8, recordHeaderLen+n)
	binary.LittleEndian.PutUint64(rec[recordHeaderLen:], gen)
	rec = binary.AppendUvarint(rec, uint64(len(ops)))
	for _, op := range ops {
		flags := byte(0)
		if op.Delete {
			flags = 1
		}
		rec = append(rec, flags)
		rec = binary.AppendUvarint(rec, uint64(len(op.Triples)))
		for _, t := range op.Triples {
			rec = appendTerm(rec, t.S)
			rec = appendTerm(rec, t.P)
			rec = appendTerm(rec, t.O)
		}
	}
	payload := rec[recordHeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return rec
}

// decodePayload decodes a checksum-verified record payload. It accepts
// only what encodeRecord writes, byte for byte.
func decodePayload(payload []byte) (gen uint64, ops []store.BatchOp, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("wal: record payload too short")
	}
	gen = binary.LittleEndian.Uint64(payload)
	nOps, b, ok := readCount(payload[8:], 2) // flags + triple count
	if !ok {
		return 0, nil, fmt.Errorf("wal: bad op count")
	}
	ops = make([]store.BatchOp, 0, nOps)
	for i := uint64(0); i < nOps; i++ {
		if len(b) < 1 || b[0] > 1 {
			return 0, nil, fmt.Errorf("wal: truncated op or bad op flags")
		}
		op := store.BatchOp{Delete: b[0] == 1}
		nT, rest, ok := readCount(b[1:], 3*minTermLen)
		if !ok {
			return 0, nil, fmt.Errorf("wal: bad triple count")
		}
		b = rest
		op.Triples = make([]rdf.Triple, 0, nT)
		for j := uint64(0); j < nT; j++ {
			var t rdf.Triple
			if t.S, b, err = readTerm(b); err != nil {
				return 0, nil, err
			}
			if t.P, b, err = readTerm(b); err != nil {
				return 0, nil, err
			}
			if t.O, b, err = readTerm(b); err != nil {
				return 0, nil, err
			}
			op.Triples = append(op.Triples, t)
		}
		ops = append(ops, op)
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("wal: %d trailing payload bytes", len(b))
	}
	return gen, ops, nil
}
