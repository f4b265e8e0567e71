package kb

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// FromTriples reconstructs a KB from raw triples (e.g. a kbgen dump or
// an external DBpedia-style file): the triples are loaded as one write
// batch, the ontology indexes are built over them (FromStore), and the
// rdf:type closure is materialised — as one further write batch of what
// is missing, none at all for a dump that already carries it.
func FromTriples(triples []rdf.Triple) (*KB, error) {
	st := store.New()
	st.AddAll(triples)
	kb, err := FromStore(st)
	if err != nil {
		return nil, err
	}
	kb.materializeTypes()
	return kb, nil
}

// FromStore builds a KB over st as it stands: the ontology indexes
// (classes, object/data properties with labels, domains and ranges)
// come from the owl:Class / owl:ObjectProperty / owl:DatatypeProperty
// declarations of one pinned snapshot. It writes nothing: a store
// recovered from a data dir (internal/wal) keeps its generation, its
// term IDs and exactly the triples it was recovered with.
func FromStore(st *store.Store) (*KB, error) {
	kb := &KB{
		Store:        st,
		classByLocal: map[string]Class{},
		propByLocal:  map[string]Property{},
	}
	sn := st.Snapshot()

	labelOf := func(t rdf.Term) string {
		for _, o := range sn.Objects(t, rdf.Label()) {
			return o.Value
		}
		return strings.ToLower(strings.ReplaceAll(t.LocalName(), "_", " "))
	}
	firstObject := func(s rdf.Term, p string) rdf.Term {
		for _, o := range sn.Objects(s, rdf.NewIRI(p)) {
			return o
		}
		return rdf.Term{}
	}

	for _, cls := range sn.Subjects(rdf.Type(), rdf.NewIRI(rdf.IRIClass)) {
		if !strings.HasPrefix(cls.Value, rdf.NSOnt) {
			continue
		}
		c := Class{Term: cls, Label: labelOf(cls), Parent: firstObject(cls, rdf.IRISubClassOf)}
		kb.Classes = append(kb.Classes, c)
		kb.classByLocal[cls.LocalName()] = c
	}
	for _, prop := range sn.Subjects(rdf.Type(), rdf.NewIRI(rdf.IRIObjectProp)) {
		p := Property{
			Term: prop, Label: labelOf(prop), Object: true,
			Domain: firstObject(prop, rdf.IRIDomain),
			Range:  firstObject(prop, rdf.IRIRange),
		}
		kb.ObjectProperties = append(kb.ObjectProperties, p)
		kb.propByLocal[prop.LocalName()] = p
	}
	for _, prop := range sn.Subjects(rdf.Type(), rdf.NewIRI(rdf.IRIDatatypeProp)) {
		p := Property{
			Term: prop, Label: labelOf(prop), Object: false,
			Domain: firstObject(prop, rdf.IRIDomain),
			Range:  firstObject(prop, rdf.IRIRange),
		}
		kb.DataProperties = append(kb.DataProperties, p)
		kb.propByLocal[prop.LocalName()] = p
	}
	if len(kb.Classes) == 0 {
		return nil, fmt.Errorf("kb: no dbont: classes found in %d triples (missing ontology declarations?)", sn.Len())
	}
	return kb, nil
}

// Load reads a KB from an N-Triples (.nt) or Turtle (.ttl) stream; the
// format is chosen by the name's extension, defaulting to N-Triples,
// whose strict line-oriented grammar refuses Turtle-only syntax.
func Load(r io.Reader, name string) (*KB, error) {
	var (
		triples []rdf.Triple
		err     error
	)
	switch strings.ToLower(filepath.Ext(name)) {
	case ".ttl", ".turtle":
		triples, err = turtle.Parse(r)
	default:
		triples, err = turtle.ParseNTriples(r)
	}
	if err != nil {
		return nil, err
	}
	return FromTriples(triples)
}

// LoadFile opens and reads a KB file (.nt/.ttl by extension) — the
// shared -kb flag implementation of the CLIs.
func LoadFile(path string) (*KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, path)
}
