package answer

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain fails the package when its tests leak goroutines: §2.3 runs
// on the caller's goroutine and must start none of its own.
func TestMain(m *testing.M) {
	testutil.VerifyNoLeaks(m)
}
