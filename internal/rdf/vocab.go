package rdf

import "strings"

// Namespace IRIs used throughout the system. The dbont/res/dbprop
// namespaces mirror the DBpedia layout the paper queries.
const (
	NSRDF    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	NSRDFS   = "http://www.w3.org/2000/01/rdf-schema#"
	NSOWL    = "http://www.w3.org/2002/07/owl#"
	NSXSD    = "http://www.w3.org/2001/XMLSchema#"
	NSOnt    = "http://dbpedia.org/ontology/"
	NSRes    = "http://dbpedia.org/resource/"
	NSProp   = "http://dbpedia.org/property/"
	NSFOAF   = "http://xmlns.com/foaf/0.1/"
	NSDBLink = "http://dbpedia.org/ontology/wikiPageWikiLink"
)

// Well-known term IRIs.
const (
	IRIType         = NSRDF + "type"
	IRILabel        = NSRDFS + "label"
	IRIComment      = NSRDFS + "comment"
	IRISubClassOf   = NSRDFS + "subClassOf"
	IRIDomain       = NSRDFS + "domain"
	IRIRange        = NSRDFS + "range"
	IRIClass        = NSOWL + "Class"
	IRIObjectProp   = NSOWL + "ObjectProperty"
	IRIDatatypeProp = NSOWL + "DatatypeProperty"
	IRIThing        = NSOWL + "Thing"
	IRIPageLink     = NSDBLink
)

// XSD datatype IRIs.
const (
	XSDString             = NSXSD + "string"
	XSDInteger            = NSXSD + "integer"
	XSDInt                = NSXSD + "int"
	XSDLong               = NSXSD + "long"
	XSDDecimal            = NSXSD + "decimal"
	XSDDouble             = NSXSD + "double"
	XSDFloat              = NSXSD + "float"
	XSDBoolean            = NSXSD + "boolean"
	XSDDate               = NSXSD + "date"
	XSDDateTime           = NSXSD + "dateTime"
	XSDGYear              = NSXSD + "gYear"
	XSDGYearMonth         = NSXSD + "gYearMonth"
	XSDNonNegativeInteger = NSXSD + "nonNegativeInteger"
	XSDPositiveInteger    = NSXSD + "positiveInteger"
)

// Convenience term constructors for the common namespaces.

// Type is the rdf:type IRI term.
func Type() Term { return NewIRI(IRIType) }

// Label is the rdfs:label IRI term.
func Label() Term { return NewIRI(IRILabel) }

// SubClassOf is the rdfs:subClassOf IRI term.
func SubClassOf() Term { return NewIRI(IRISubClassOf) }

// Ont returns the dbont: (DBpedia ontology) term for a local name.
func Ont(local string) Term { return NewIRI(NSOnt + local) }

// Res returns the res: (DBpedia resource) term for a local name.
func Res(local string) Term { return NewIRI(NSRes + local) }

// Prop returns the dbprop: (raw infobox property) term for a local name.
func Prop(local string) Term { return NewIRI(NSProp + local) }

// ResName converts a human label to a resource local name in the DBpedia
// style: spaces to underscores ("Orhan Pamuk" -> "Orhan_Pamuk").
func ResName(label string) string {
	return strings.ReplaceAll(strings.TrimSpace(label), " ", "_")
}

// prefixes are the bindings the printer and Expand use: the standard set,
// fixed at compile time. A query's own PREFIX declarations never land
// here — the SPARQL and Turtle parsers keep them per document. The
// table is sorted longest namespace first (ties by prefix), so
// shortening picks the most specific namespace; TestPrefixesSorted
// holds it to that order.
var prefixes = [...]struct{ prefix, ns string }{
	{"rdf", NSRDF},
	{"rdfs", NSRDFS},
	{"xsd", NSXSD},
	{"owl", NSOWL},
	{"dbont", NSOnt},
	{"dbprop", NSProp},
	{"res", NSRes},
	{"foaf", NSFOAF},
}

// shorten splits iri into a standard prefix and a local name, which
// must be a simple name: not empty, and no '/', '#' or ':'.
func shorten(iri string) (prefix, local string, ok bool) {
	for _, e := range prefixes {
		if strings.HasPrefix(iri, e.ns) {
			local := iri[len(e.ns):]
			if local == "" || strings.ContainsAny(local, "/#:") {
				continue
			}
			return e.prefix, local, true
		}
	}
	return "", "", false
}

// Expand converts a prefixed name ("dbont:writer") to a full IRI using the
// standard bindings. It reports whether the prefix was known.
func Expand(qname string) (string, bool) {
	i := strings.IndexByte(qname, ':')
	if i < 0 {
		return "", false
	}
	for _, e := range prefixes {
		if e.prefix == qname[:i] {
			return e.ns + qname[i+1:], true
		}
	}
	return "", false
}
