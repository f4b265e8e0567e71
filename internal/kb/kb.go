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

// builder is a KB under construction: the helpers below queue their
// triples in call order and Build hands the store the whole queue as
// one write batch — one snapshot publication, not one per triple. The
// queue goes with the builder; the KB Build returns keeps none of it.
type builder struct {
	*KB
	queue []rdf.Triple
}

func (kb *builder) add(s, p, o rdf.Term) {
	kb.queue = append(kb.queue, rdf.Triple{S: s, P: p, O: o})
}

// Build constructs the knowledge base in two write batches: the
// asserted triples, then the inferred rdf:type closure over them.
func Build(cfg Config) *KB {
	kb := &builder{KB: &KB{
		Store:        store.New(),
		classByLocal: map[string]Class{},
		propByLocal:  map[string]Property{},
	}}
	// Capacity hint: the curated core plus what buildSynthetic queues per
	// entity on average; a miss costs append growth, nothing else.
	kb.queue = make([]rdf.Triple, 0, 1200+13*cfg.SyntheticPersons+4*cfg.SyntheticCities+6*cfg.SyntheticBooks)
	kb.buildOntology()
	kb.buildCuratedEntities()
	kb.buildSynthetic(cfg)
	kb.Store.AddAll(kb.queue)
	kb.materializeTypes()
	return kb.KB
}

// materializeTypes asserts the full rdf:type closure (every superclass
// of every asserted type), as the DBpedia dumps the paper queries do —
// SPARQL BGPs like "?x rdf:type dbont:Person" then work without RDFS
// inference at query time. What the store lacks of the closure is one
// write batch, queued in index order (class ID, then entity ID) — none
// at all when nothing is missing — and every superclass is already a
// dictionary term, so no ID depends on the walk.
func (kb *KB) materializeTypes() {
	sn := kb.Store.Snapshot()
	supers := map[rdf.Term][]rdf.Term{} // class → superclass closure, walked once each
	var inferred []rdf.Triple
	sn.ForEachMatch(rdf.Triple{P: rdf.Type()}, func(t rdf.Triple) bool {
		if strings.HasPrefix(t.S.Value, rdf.NSRes) && strings.HasPrefix(t.O.Value, rdf.NSOnt) {
			closure, ok := supers[t.O]
			if !ok {
				closure = sn.SuperClasses(t.O)
				supers[t.O] = closure
			}
			for _, super := range closure {
				if tr := (rdf.Triple{S: t.S, P: rdf.Type(), O: super}); !sn.Has(tr) {
					inferred = append(inferred, tr)
				}
			}
		}
		return true
	})
	if len(inferred) > 0 {
		kb.Store.AddAll(inferred)
	}
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

func (kb *builder) class(local, label string, parent rdf.Term) rdf.Term {
	term := rdf.Ont(local)
	c := Class{Term: term, Label: label, Parent: parent}
	kb.Classes = append(kb.Classes, c)
	kb.classByLocal[local] = c
	kb.add(term, rdf.Type(), rdf.NewIRI(rdf.IRIClass))
	kb.add(term, rdf.Label(), rdf.NewLangLiteral(label, "en"))
	if !parent.IsZero() {
		kb.add(term, rdf.SubClassOf(), parent)
	}
	return term
}

func (kb *builder) objProp(local, label string, domain, rng rdf.Term) rdf.Term {
	term := rdf.Ont(local)
	p := Property{Term: term, Label: label, Domain: domain, Range: rng, Object: true}
	kb.ObjectProperties = append(kb.ObjectProperties, p)
	kb.propByLocal[local] = p
	kb.add(term, rdf.Type(), rdf.NewIRI(rdf.IRIObjectProp))
	kb.add(term, rdf.Label(), rdf.NewLangLiteral(label, "en"))
	kb.add(term, rdf.NewIRI(rdf.IRIDomain), domain)
	kb.add(term, rdf.NewIRI(rdf.IRIRange), rng)
	return term
}

func (kb *builder) dataProp(local, label string, domain rdf.Term, xsdType string) rdf.Term {
	term := rdf.Ont(local)
	p := Property{Term: term, Label: label, Domain: domain, Range: rdf.NewIRI(xsdType), Object: false}
	kb.DataProperties = append(kb.DataProperties, p)
	kb.propByLocal[local] = p
	kb.add(term, rdf.Type(), rdf.NewIRI(rdf.IRIDatatypeProp))
	kb.add(term, rdf.Label(), rdf.NewLangLiteral(label, "en"))
	kb.add(term, rdf.NewIRI(rdf.IRIDomain), domain)
	kb.add(term, rdf.NewIRI(rdf.IRIRange), rdf.NewIRI(xsdType))
	return term
}

// buildOntology declares the class tree and properties (a faithful
// slice of the DBpedia 3.7 ontology the paper queries).
func (kb *builder) buildOntology() {
	thing := rdf.NewIRI(rdf.IRIThing)

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

	ont := func(l string) rdf.Term { return rdf.Ont(l) }

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

// ent creates an entity with label and classes, returning its term.
func (kb *builder) ent(local, label string, classes ...string) rdf.Term {
	t := rdf.Res(local)
	kb.add(t, rdf.Label(), rdf.NewLangLiteral(label, "en"))
	for _, c := range classes {
		kb.add(t, rdf.Type(), rdf.Ont(c))
	}
	return t
}

// fact asserts (s, dbont:prop, o) and the page links both ways.
func (kb *builder) fact(s rdf.Term, prop string, o rdf.Term) {
	kb.add(s, rdf.Ont(prop), o)
	if o.IsIRI() && strings.HasPrefix(o.Value, rdf.NSRes) {
		kb.link(s, o)
	}
}

// link adds wikiPageWikiLink edges in both directions.
func (kb *builder) link(a, b rdf.Term) {
	kb.add(a, rdf.NewIRI(rdf.IRIPageLink), b)
	kb.add(b, rdf.NewIRI(rdf.IRIPageLink), a)
}

// dataFact asserts a literal-valued fact.
func (kb *builder) dataFact(s rdf.Term, prop string, o rdf.Term) {
	kb.add(s, rdf.Ont(prop), o)
}

// buildSynthetic adds the deterministic generated long tail.
func (kb *builder) buildSynthetic(cfg Config) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	cities := make([]rdf.Term, 0, cfg.SyntheticCities)
	for i := 0; i < cfg.SyntheticCities; i++ {
		name := fmt.Sprintf("Synthville_%03d", i)
		c := kb.ent(name, strings.ReplaceAll(name, "_", " "), "City")
		kb.dataFact(c, "populationTotal", rdf.NewInteger(int64(1000+rng.Intn(5_000_000))))
		kb.dataFact(c, "elevation", rdf.NewDouble(float64(rng.Intn(3000))))
		cities = append(cities, c)
	}
	persons := make([]rdf.Term, 0, cfg.SyntheticPersons)
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
