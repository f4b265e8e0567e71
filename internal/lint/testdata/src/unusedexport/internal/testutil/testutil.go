// Package testutil is test support: only _test.go files call it.
package testutil

// Fixture has no non-test caller, and is no finding.
func Fixture() int { return 1 }
