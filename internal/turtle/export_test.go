package turtle

// RefParseNTriples is exported for kbdump_test.go, which is in package
// turtle_test so that it can import kb.
var RefParseNTriples = refParseNTriples
