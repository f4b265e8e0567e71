// Package testutil holds shared test-only helpers.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// VerifyNoLeaks is a TestMain body that fails the package when its
// tests leak goroutines. It snapshots the goroutine count before any
// test runs, runs the tests, and then requires the count to return to
// the baseline — retrying for a grace period first, because legitimate
// teardown (http server shutdown, worker-pool drain after a cancelled
// fan-out) finishes asynchronously. On a leak it dumps all goroutine
// stacks and exits non-zero; an already-failing run is left alone so
// the real failure stays the loudest signal.
//
// Usage, per package:
//
//	func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }
func VerifyNoLeaks(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base || n-signalLoops() <= base {
				break
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				fmt.Fprintf(os.Stderr,
					"goroutine leak: %d goroutines alive after tests (baseline %d):\n\n%s\n",
					runtime.NumGoroutine(), base, buf[:n])
				code = 1
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	os.Exit(code)
}

// signalLoops counts os/signal's receive loop (0 or 1): the first
// signal.Notify of a process starts it and nothing ever stops it, and
// the coordinator of `go test -fuzz` calls Notify — so it is the one
// goroutine that may outlive the tests of a package with a fuzz target.
func signalLoops() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "\nos/signal.loop()\n")
}
