package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// segMagic opens every segment file.
var segMagic = []byte("QASEG001")

// segmentName formats the file name for a segment at gen.
func segmentName(gen uint64) string {
	return fmt.Sprintf(SegmentPattern, gen)
}

// parseSegmentName extracts the generation from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// listSegments returns the generations of the segment files in dir,
// ascending. A missing dir returns nil.
func listSegments(fsys FS, dir string) []uint64 {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, n := range names {
		if g, ok := parseSegmentName(n); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// encodeSegmentPayload serialises the snapshot: its generation, the
// term dictionary (IDs are the 1-based dictionary positions, exactly
// the store's own encoding), and the triples as uvarint ID triples in
// SPO index order.
func encodeSegmentPayload(sn *store.Snapshot) []byte {
	terms := sn.TermsView()
	b := make([]byte, 8, 64+16*len(terms))
	binary.LittleEndian.PutUint64(b, sn.Gen())
	b = binary.AppendUvarint(b, uint64(len(terms)))
	for _, t := range terms {
		b = appendTerm(b, t)
	}
	b = binary.AppendUvarint(b, uint64(sn.Len()))
	sn.ForEachMatchIDs([3]store.ID{}, func(s, p, o store.ID) bool {
		b = binary.AppendUvarint(b, uint64(s))
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(o))
		return true
	})
	return b
}

// decodeSegmentPayload reverses encodeSegmentPayload into the store the
// segment was written from. The dictionary and the ID triples go to
// store.Load as they are, so every ID means after recovery what it
// meant before the crash. It accepts only what encodeSegmentPayload
// writes, byte for byte: the triples must come in strictly ascending
// SPO order.
func decodeSegmentPayload(b []byte) (*store.Store, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("wal: segment payload too short")
	}
	gen := binary.LittleEndian.Uint64(b)
	nTerms, b, ok := readCount(b[8:], minTermLen)
	if !ok {
		return nil, fmt.Errorf("wal: bad segment term count")
	}
	terms := make([]rdf.Term, 0, nTerms)
	for i := uint64(0); i < nTerms; i++ {
		var t rdf.Term
		var err error
		if t, b, err = readTerm(b); err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	nTriples, b, ok := readCount(b, 3) // three uvarint IDs
	if !ok {
		return nil, fmt.Errorf("wal: bad segment triple count")
	}
	triples := make([][3]store.ID, 0, nTriples)
	for i := uint64(0); i < nTriples; i++ {
		var t [3]store.ID
		for j := range t {
			var id uint64
			if id, b, ok = readUvarint(b); !ok {
				return nil, fmt.Errorf("wal: truncated segment triple")
			}
			if id == 0 || id > nTerms {
				return nil, fmt.Errorf("wal: segment triple references term %d of %d", id, nTerms)
			}
			t[j] = store.ID(id)
		}
		if i > 0 && !idsLess(triples[i-1], t) {
			return nil, fmt.Errorf("wal: segment triple %d out of SPO order", i)
		}
		triples = append(triples, t)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing segment bytes", len(b))
	}
	st, err := store.Load(gen, terms, triples)
	if err != nil {
		return nil, fmt.Errorf("wal: segment: %w", err)
	}
	return st, nil
}

// idsLess orders ID triples as the SPO index does.
func idsLess(a, b [3]store.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// writeSegment durably serialises the snapshot into dir: the payload
// is written to a temp file, fsynced, atomically renamed to its final
// segment name, and the directory entry is fsynced. A crash at any
// point leaves either no new segment or a complete, checksummed one —
// never a partial file under the final name.
func writeSegment(fsys FS, dir string, sn *store.Snapshot) error {
	payload := encodeSegmentPayload(sn)
	name := segmentName(sn.Gen())
	tmp := join(dir, name+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, len(segMagic)+recordHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, castagnoli))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, join(dir, name)); err != nil {
		fsys.Remove(tmp)
		return err
	}
	syncDir(fsys, dir) // best-effort: entry durability
	return nil
}

// readSegment loads and verifies the segment at gen.
func readSegment(fsys FS, dir string, gen uint64) (*store.Store, error) {
	f, err := fsys.OpenFile(join(dir, segmentName(gen)), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(data) < len(segMagic)+recordHeaderLen || string(data[:len(segMagic)]) != string(segMagic) {
		return nil, fmt.Errorf("wal: segment %d: bad magic", gen)
	}
	rest := data[len(segMagic):]
	n := binary.LittleEndian.Uint32(rest[0:4])
	sum := binary.LittleEndian.Uint32(rest[4:8])
	if int(n) != len(rest)-recordHeaderLen {
		return nil, fmt.Errorf("wal: segment %d: length %d does not match file", gen, n)
	}
	payload := rest[recordHeaderLen:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("wal: segment %d: checksum mismatch", gen)
	}
	st, err := decodeSegmentPayload(payload)
	if err != nil {
		return nil, err
	}
	if fileGen := st.Snapshot().Gen(); fileGen != gen {
		return nil, fmt.Errorf("wal: segment %d: payload claims generation %d", gen, fileGen)
	}
	return st, nil
}

// removeTempFiles clears *.tmp leftovers from a crashed compaction.
func removeTempFiles(fsys FS, dir string) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			fsys.Remove(join(dir, n))
		}
	}
}
