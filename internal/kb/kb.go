// Package kb builds the synthetic DBpedia-like knowledge base the
// question answering system queries. It substitutes the real DBpedia 3.7
// endpoint used in the paper: the same ontology layout (dbont: classes
// with rdfs:subClassOf, object and data properties with rdfs:domain/
// range and rdfs:label), res: entities with English labels, facts, and
// wikiPageWikiLink page links (used by the NED stage of ref. [15]).
//
// The curated portion covers every running example in the paper (Orhan
// Pamuk's books, Michael Jordan's height, Abraham Lincoln's death place,
// Michael Jackson's birth place, Frank Herbert's death date, Italy's
// population 59,464,644) plus the entities the QALD-style evaluation set
// needs. A seeded synthetic generator scales the graph out for benches.
package kb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Property describes one ontology property.
type Property struct {
	Term   rdf.Term
	Label  string
	Domain rdf.Term
	Range  rdf.Term // class for object properties, xsd datatype IRI for data
	Object bool     // true = object property
}

// Class describes one ontology class.
type Class struct {
	Term   rdf.Term
	Label  string
	Parent rdf.Term // zero for owl:Thing roots
}

// KB bundles the triple store with ontology indexes the pipeline needs.
//
// A KB is immutable once Build returns: the ontology slices and local-
// name maps are never written afterwards, and the store is only read.
// It is therefore safe to share one KB across goroutines — both the
// candidate-query fan-out inside internal/answer and the question-level
// workers of internal/qald rely on this (the store additionally
// serializes any later writer against its parallel readers).
type KB struct {
	Store *store.Store

	Classes          []Class
	ObjectProperties []Property
	DataProperties   []Property

	classByLocal map[string]Class
	propByLocal  map[string]Property
}

// Config controls KB construction.
type Config struct {
	// Seed drives the synthetic scale-out; the curated core is fixed.
	Seed int64
	// SyntheticPersons / SyntheticCities / SyntheticBooks control the
	// generated long tail (0 disables).
	SyntheticPersons int
	SyntheticCities  int
	SyntheticBooks   int
}

// DefaultConfig is the configuration used by Default and the evaluation.
func DefaultConfig() Config {
	return Config{Seed: 42, SyntheticPersons: 250, SyntheticCities: 60, SyntheticBooks: 150}
}

var (
	defaultOnce sync.Once
	defaultKB   *KB
)

// Default returns a process-wide KB built with DefaultConfig.
func Default() *KB {
	defaultOnce.Do(func() { defaultKB = Build(DefaultConfig()) })
	return defaultKB
}

// sink is what the builder writes to: a *store.Batch, through which
// the KB's store takes the asserted triples as one write batch, or, in
// the tests, a recorder that replays them one Store.Add at a time.
type sink interface {
	Intern(rdf.Term) store.ID
	Add(s, p, o store.ID)
}

// builder is a KB under construction. Its helpers write each triple to
// the sink as they assert it, by ID, and there is no queue: a class,
// property or entity is interned once, when it is declared, and its
// handle carries the ID; a literal is interned as it comes. Every term
// is interned as its triple's subject, predicate and object come, so
// IDs keep first-appearance order.
type builder struct {
	*KB
	w       sink
	vocab   [nVocab]store.ID // 0 until the term's first use
	classes map[string]ref
	props   map[string]store.ID
}

// ref is a term the builder writes, with the ID it got; 0 until it is
// interned.
type ref struct {
	term rdf.Term
	id   store.ID
}

// The vocabulary the helpers write, interned at first use.
const (
	vType = iota
	vLabel
	vSubClassOf
	vClass
	vObjectProp
	vDatatypeProp
	vDomain
	vRange
	vPageLink
	nVocab
)

var vocabTerms = [nVocab]rdf.Term{
	vType:         rdf.Type(),
	vLabel:        rdf.Label(),
	vSubClassOf:   rdf.SubClassOf(),
	vClass:        rdf.NewIRI(rdf.IRIClass),
	vObjectProp:   rdf.NewIRI(rdf.IRIObjectProp),
	vDatatypeProp: rdf.NewIRI(rdf.IRIDatatypeProp),
	vDomain:       rdf.NewIRI(rdf.IRIDomain),
	vRange:        rdf.NewIRI(rdf.IRIRange),
	vPageLink:     rdf.NewIRI(rdf.IRIPageLink),
}

// v returns the ID of vocabulary term i.
func (kb *builder) v(i int) store.ID {
	if kb.vocab[i] == 0 {
		kb.vocab[i] = kb.w.Intern(vocabTerms[i])
	}
	return kb.vocab[i]
}

// id returns r's ID, interning its term when r has none yet.
func (kb *builder) id(r ref) store.ID {
	if r.id != 0 {
		return r.id
	}
	return kb.w.Intern(r.term)
}

// intern interns t, as the subject of the triple about to be added.
func (kb *builder) intern(t rdf.Term) ref { return ref{term: t, id: kb.w.Intern(t)} }

// newBuilder returns an empty builder writing to w.
func newBuilder(st *store.Store, w sink) *builder {
	return &builder{
		KB: &KB{
			Store:        st,
			classByLocal: map[string]Class{},
			propByLocal:  map[string]Property{},
		},
		w:       w,
		classes: map[string]ref{},
		props:   map[string]store.ID{},
	}
}

// build runs the helpers: the ontology, the curated entities, then the
// synthetic long tail of cfg.
func (kb *builder) build(cfg Config) {
	kb.buildOntology()
	kb.buildCuratedEntities()
	kb.buildSynthetic(cfg)
}

// Build constructs the knowledge base in two write batches: the
// asserted triples, then the inferred rdf:type closure over them.
func Build(cfg Config) *KB {
	kb := newBuilder(store.New(), nil)
	// Capacity hint: the curated core plus what buildSynthetic adds per
	// entity on average; a miss costs append growth, nothing else.
	kb.Store.Batch(1200+13*cfg.SyntheticPersons+4*cfg.SyntheticCities+6*cfg.SyntheticBooks, func(b *store.Batch) {
		kb.w = b
		kb.build(cfg)
	})
	kb.materializeTypes()
	return kb.KB
}

// materializeTypes asserts the full rdf:type closure (every superclass
// of every asserted type), as the DBpedia dumps the paper queries do —
// SPARQL BGPs like "?x rdf:type dbont:Person" then work without RDFS
// inference at query time. It works by ID: it walks the rdf:type
// triples in POS order (class, then entity), takes each class's
// superclasses from the rdfs:subClassOf index once, and adds what the
// store lacks as one write batch — none at all when nothing is missing.
// Every superclass is already a dictionary term, so no ID depends on
// the walk.
func (kb *KB) materializeTypes() {
	sn := kb.Store.Snapshot()
	typ, ok := sn.Lookup(rdf.Type())
	if !ok {
		return
	}
	sub, _ := sn.Lookup(rdf.SubClassOf())
	terms := sn.TermsView()
	supers := map[store.ID][]store.ID{} // class → its superclasses, walked once each
	var inferred [][3]store.ID
	sn.ForEachMatchIDs([3]store.ID{0, typ, 0}, func(s, _, o store.ID) bool {
		if !strings.HasPrefix(terms[o-1].Value, rdf.NSOnt) || !strings.HasPrefix(terms[s-1].Value, rdf.NSRes) {
			return true
		}
		closure, ok := supers[o]
		if !ok {
			closure = superClasses(sn, sub, o)
			supers[o] = closure
		}
		for _, super := range closure {
			if !sn.HasIDs(s, typ, super) {
				inferred = append(inferred, [3]store.ID{s, typ, super})
			}
		}
		return true
	})
	if len(inferred) > 0 {
		kb.Store.Batch(len(inferred), func(b *store.Batch) {
			for _, t := range inferred {
				b.Add(t[0], t[1], t[2])
			}
		})
	}
}

// superClasses returns the transitive closure of rdfs:subClassOf (ID
// sub; 0 when the store has none) from class c, c excluded, in
// ascending ID order. Cycles are tolerated.
func superClasses(sn *store.Snapshot, sub, c store.ID) []store.ID {
	if sub == 0 {
		return nil
	}
	var out []store.ID
	seen := map[store.ID]bool{c: true}
	for frontier := []store.ID{c}; len(frontier) > 0; {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		lst, _ := sn.PostingList([3]store.ID{cur, sub, 0})
		for _, super := range lst {
			if !seen[super] {
				seen[super] = true
				out = append(out, super)
				frontier = append(frontier, super)
			}
		}
	}
	slices.Sort(out)
	return out
}

// ClassByLocal returns the class with the given dbont: local name.
func (kb *KB) ClassByLocal(local string) (Class, bool) {
	c, ok := kb.classByLocal[local]
	return c, ok
}

// PropertyByLocal returns the property with the given dbont: local name.
func (kb *KB) PropertyByLocal(local string) (Property, bool) {
	p, ok := kb.propByLocal[local]
	return p, ok
}

// Properties returns object and data properties combined.
func (kb *KB) Properties() []Property {
	out := make([]Property, 0, len(kb.ObjectProperties)+len(kb.DataProperties))
	out = append(out, kb.ObjectProperties...)
	out = append(out, kb.DataProperties...)
	return out
}

// LabelOf returns the first rdfs:label of a term (its local name as a
// fallback, with underscores replaced), read from the current snapshot.
func (kb *KB) LabelOf(t rdf.Term) string { return LabelIn(kb.Store.Snapshot(), t) }

// LabelIn is LabelOf on a pinned snapshot.
func LabelIn(sn *store.Snapshot, t rdf.Term) string {
	for _, o := range sn.Objects(t, rdf.Label()) {
		return o.Value
	}
	return strings.ReplaceAll(t.LocalName(), "_", " ")
}

// --- ontology construction helpers ---

func (kb *builder) class(local, label string, parent ref) ref {
	c := Class{Term: rdf.Ont(local), Label: label, Parent: parent.term}
	kb.Classes = append(kb.Classes, c)
	kb.classByLocal[local] = c
	r := kb.intern(c.Term)
	kb.classes[local] = r
	kb.w.Add(r.id, kb.v(vType), kb.v(vClass))
	kb.w.Add(r.id, kb.v(vLabel), kb.w.Intern(rdf.NewLangLiteral(label, "en")))
	if !parent.term.IsZero() {
		kb.w.Add(r.id, kb.v(vSubClassOf), kb.id(parent))
	}
	return r
}

// cls returns the handle of a declared class.
func (kb *builder) cls(local string) ref {
	r, ok := kb.classes[local]
	if !ok {
		panic("kb: undeclared class " + local)
	}
	return r
}

// prop declares a property of kind (vObjectProp or vDatatypeProp).
func (kb *builder) prop(p Property, local string, kind int, domain, rng ref) {
	if p.Object {
		kb.ObjectProperties = append(kb.ObjectProperties, p)
	} else {
		kb.DataProperties = append(kb.DataProperties, p)
	}
	kb.propByLocal[local] = p
	id := kb.w.Intern(p.Term)
	kb.props[local] = id
	kb.w.Add(id, kb.v(vType), kb.v(kind))
	kb.w.Add(id, kb.v(vLabel), kb.w.Intern(rdf.NewLangLiteral(p.Label, "en")))
	kb.w.Add(id, kb.v(vDomain), kb.id(domain))
	kb.w.Add(id, kb.v(vRange), kb.id(rng))
}

func (kb *builder) objProp(local, label string, domain, rng ref) {
	p := Property{Term: rdf.Ont(local), Label: label, Domain: domain.term, Range: rng.term, Object: true}
	kb.prop(p, local, vObjectProp, domain, rng)
}

func (kb *builder) dataProp(local, label string, domain ref, xsdType string) {
	rng := ref{term: rdf.NewIRI(xsdType)}
	p := Property{Term: rdf.Ont(local), Label: label, Domain: domain.term, Range: rng.term}
	kb.prop(p, local, vDatatypeProp, domain, rng)
}

// buildOntology declares the class tree and properties (a faithful
// slice of the DBpedia 3.7 ontology the paper queries).
func (kb *builder) buildOntology() {
	thing := ref{term: rdf.NewIRI(rdf.IRIThing)} // interned at first use

	agent := kb.class("Agent", "agent", thing)
	person := kb.class("Person", "person", agent)
	artist := kb.class("Artist", "artist", person)
	kb.class("Writer", "writer", artist)
	kb.class("MusicalArtist", "musical artist", artist)
	kb.class("Painter", "painter", artist)
	kb.class("Actor", "actor", artist)
	athlete := kb.class("Athlete", "athlete", person)
	kb.class("BasketballPlayer", "basketball player", athlete)
	kb.class("SoccerPlayer", "soccer player", athlete)
	politician := kb.class("Politician", "politician", person)
	kb.class("President", "president", politician)
	kb.class("PrimeMinister", "prime minister", politician)
	kb.class("Monarch", "monarch", politician)
	kb.class("OfficeHolder", "office holder", person)
	kb.class("Scientist", "scientist", person)
	kb.class("Philosopher", "philosopher", person)

	org := kb.class("Organisation", "organisation", agent)
	kb.class("Company", "company", org)
	kb.class("University", "university", org)
	team := kb.class("SportsTeam", "sports team", org)
	kb.class("BasketballTeam", "basketball team", team)
	kb.class("Band", "band", org)
	kb.class("PoliticalParty", "political party", org)
	kb.class("SportsLeague", "sports league", org)

	place := kb.class("Place", "place", thing)
	popPlace := kb.class("PopulatedPlace", "populated place", place)
	kb.class("Country", "country", popPlace)
	settlement := kb.class("Settlement", "settlement", popPlace)
	kb.class("City", "city", settlement)
	kb.class("Town", "town", settlement)
	natural := kb.class("NaturalPlace", "natural place", place)
	kb.class("Mountain", "mountain", natural)
	kb.class("River", "river", natural)
	kb.class("Lake", "lake", natural)
	kb.class("Island", "island", natural)
	kb.class("Continent", "continent", place)
	arch := kb.class("ArchitecturalStructure", "architectural structure", place)
	kb.class("Building", "building", arch)
	kb.class("Bridge", "bridge", arch)

	work := kb.class("Work", "work", thing)
	written := kb.class("WrittenWork", "written work", work)
	kb.class("Book", "book", written)
	kb.class("Film", "film", work)
	musical := kb.class("MusicalWork", "musical work", work)
	kb.class("Album", "album", musical)
	kb.class("Song", "song", musical)
	software := kb.class("Software", "software", work)
	kb.class("VideoGame", "video game", software)

	kb.class("Language", "language", thing)
	kb.class("Currency", "currency", thing)
	kb.class("Award", "award", thing)

	ont := kb.cls

	// Object properties.
	kb.objProp("author", "author", ont("WrittenWork"), person)
	kb.objProp("writer", "writer", work, person)
	kb.objProp("director", "director", ont("Film"), person)
	kb.objProp("starring", "starring", ont("Film"), ont("Actor"))
	kb.objProp("producer", "producer", work, agent)
	kb.objProp("musicComposer", "music composer", work, ont("MusicalArtist"))
	kb.objProp("developer", "developer", ont("Software"), ont("Company"))
	kb.objProp("publisher", "publisher", ont("WrittenWork"), ont("Company"))
	kb.objProp("birthPlace", "birth place", person, place)
	kb.objProp("deathPlace", "death place", person, place)
	kb.objProp("residence", "residence", person, place)
	kb.objProp("hometown", "home town", person, place)
	kb.objProp("nationality", "nationality", person, ont("Country"))
	kb.objProp("spouse", "spouse", person, person)
	kb.objProp("child", "child", person, person)
	kb.objProp("parent", "parent", person, person)
	kb.objProp("almaMater", "alma mater", person, ont("University"))
	kb.objProp("employer", "employer", person, org)
	kb.objProp("team", "team", athlete, team)
	kb.objProp("league", "league", team, ont("SportsLeague"))
	kb.objProp("capital", "capital", ont("Country"), ont("City"))
	kb.objProp("largestCity", "largest city", ont("Country"), ont("City"))
	kb.objProp("country", "country", place, ont("Country"))
	kb.objProp("leaderName", "leader name", popPlace, person)
	kb.objProp("chancellor", "chancellor", ont("Country"), person)
	kb.objProp("mayor", "mayor", ont("City"), person)
	kb.objProp("headquarter", "headquarter", org, ont("City"))
	kb.objProp("foundedBy", "founded by", org, person)
	kb.objProp("keyPerson", "key person", ont("Company"), person)
	kb.objProp("location", "location", thing, place)
	kb.objProp("currency", "currency", ont("Country"), ont("Currency"))
	kb.objProp("officialLanguage", "official language", ont("Country"), ont("Language"))
	kb.objProp("language", "language", ont("Country"), ont("Language"))
	kb.objProp("anthem", "anthem", ont("Country"), ont("Song"))
	kb.objProp("crosses", "crosses", ont("Bridge"), ont("River"))
	kb.objProp("award", "award", person, ont("Award"))
	kb.objProp("influencedBy", "influenced by", person, person)
	kb.objProp("doctoralAdvisor", "doctoral advisor", ont("Scientist"), ont("Scientist"))
	kb.objProp("sourceCountry", "source country", ont("River"), ont("Country"))

	// Data properties.
	kb.dataProp("height", "height", person, rdf.XSDDouble)
	kb.dataProp("weight", "weight", person, rdf.XSDDouble)
	kb.dataProp("birthDate", "birth date", person, rdf.XSDDate)
	kb.dataProp("deathDate", "death date", person, rdf.XSDDate)
	kb.dataProp("populationTotal", "population total", popPlace, rdf.XSDNonNegativeInteger)
	kb.dataProp("areaTotal", "area total", place, rdf.XSDDouble)
	kb.dataProp("elevation", "elevation", place, rdf.XSDDouble)
	kb.dataProp("length", "length", ont("River"), rdf.XSDDouble)
	kb.dataProp("depth", "depth", ont("Lake"), rdf.XSDDouble)
	kb.dataProp("foundingDate", "founding date", org, rdf.XSDDate)
	kb.dataProp("numberOfEmployees", "number of employees", ont("Company"), rdf.XSDNonNegativeInteger)
	kb.dataProp("numberOfPages", "number of pages", ont("Book"), rdf.XSDPositiveInteger)
	kb.dataProp("numberOfStudents", "number of students", ont("University"), rdf.XSDNonNegativeInteger)
	kb.dataProp("runtime", "runtime", ont("Film"), rdf.XSDDouble)
	kb.dataProp("releaseDate", "release date", work, rdf.XSDDate)
	kb.dataProp("budget", "budget", ont("Film"), rdf.XSDDouble)
}

// --- entity construction helpers ---

// ent creates an entity with label and classes, returning its handle.
func (kb *builder) ent(local, label string, classes ...string) ref {
	r := kb.intern(rdf.Res(local))
	kb.w.Add(r.id, kb.v(vLabel), kb.w.Intern(rdf.NewLangLiteral(label, "en")))
	for _, c := range classes {
		kb.w.Add(r.id, kb.v(vType), kb.cls(c).id)
	}
	return r
}

// propID returns the ID of a declared property.
func (kb *builder) propID(local string) store.ID {
	id, ok := kb.props[local]
	if !ok {
		panic("kb: undeclared property " + local)
	}
	return id
}

// fact asserts (s, dbont:prop, o) and the page links both ways.
func (kb *builder) fact(s ref, prop string, o ref) {
	kb.w.Add(s.id, kb.propID(prop), o.id)
	if o.term.IsIRI() && strings.HasPrefix(o.term.Value, rdf.NSRes) {
		kb.link(s, o)
	}
}

// link adds wikiPageWikiLink edges in both directions.
func (kb *builder) link(a, b ref) {
	kb.w.Add(a.id, kb.v(vPageLink), b.id)
	kb.w.Add(b.id, kb.v(vPageLink), a.id)
}

// dataFact asserts a literal-valued fact.
func (kb *builder) dataFact(s ref, prop string, o rdf.Term) {
	kb.w.Add(s.id, kb.propID(prop), kb.w.Intern(o))
}

// buildSynthetic adds the deterministic generated long tail.
func (kb *builder) buildSynthetic(cfg Config) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	cities := make([]ref, 0, cfg.SyntheticCities)
	for i := 0; i < cfg.SyntheticCities; i++ {
		name := fmt.Sprintf("Synthville_%03d", i)
		c := kb.ent(name, strings.ReplaceAll(name, "_", " "), "City")
		kb.dataFact(c, "populationTotal", rdf.NewInteger(int64(1000+rng.Intn(5_000_000))))
		kb.dataFact(c, "elevation", rdf.NewDouble(float64(rng.Intn(3000))))
		cities = append(cities, c)
	}
	persons := make([]ref, 0, cfg.SyntheticPersons)
	for i := 0; i < cfg.SyntheticPersons; i++ {
		name := fmt.Sprintf("Synth_Person_%04d", i)
		p := kb.ent(name, strings.ReplaceAll(name, "_", " "), "Person")
		if len(cities) > 0 {
			kb.fact(p, "birthPlace", cities[rng.Intn(len(cities))])
			if rng.Float64() < 0.3 {
				kb.fact(p, "deathPlace", cities[rng.Intn(len(cities))])
			}
			if rng.Float64() < 0.4 {
				kb.fact(p, "residence", cities[rng.Intn(len(cities))])
			}
		}
		kb.dataFact(p, "height", rdf.NewDouble(1.5+rng.Float64()*0.6))
		kb.dataFact(p, "birthDate", rdf.NewDate(fmt.Sprintf("%04d-%02d-%02d",
			1900+rng.Intn(100), 1+rng.Intn(12), 1+rng.Intn(28))))
		if rng.Float64() < 0.5 && len(persons) > 0 {
			other := persons[rng.Intn(len(persons))]
			kb.fact(p, "spouse", other)
			kb.fact(other, "spouse", p)
		}
		persons = append(persons, p)
	}
	for i := 0; i < cfg.SyntheticBooks; i++ {
		name := fmt.Sprintf("Synth_Book_%04d", i)
		b := kb.ent(name, strings.ReplaceAll(name, "_", " "), "Book")
		if len(persons) > 0 {
			author := persons[rng.Intn(len(persons))]
			kb.fact(b, "author", author)
		}
		kb.dataFact(b, "numberOfPages", rdf.NewInteger(int64(80+rng.Intn(900))))
	}
}
