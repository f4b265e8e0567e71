// Command loader is the use-only second root, a module of its own: its
// use of lib.UsedByLoader counts, and nothing in it is reported.
package main

import (
	"fmt"

	"repro/internal/lib"
	"repro/loader/probe"
)

func main() { fmt.Println(lib.UsedByLoader(), probe.Used()) }
