//go:build race

package testutil

// RaceEnabled reports whether the test binary was built with -race;
// allocation ceilings skip under it (the detector allocates, and makes
// sync.Pool drop items at random).
const RaceEnabled = true
