// Package probe is a library of the use-only root: its exports are
// not reported, whether used or not.
package probe

// Used is called by the loader.
func Used() int { return 1 }

// Unused has no caller, and is no finding: a use-only package is read
// for its uses alone.
func Unused() {}
