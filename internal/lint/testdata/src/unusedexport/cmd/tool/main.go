// Command tool is a main package: nothing can import it, so its exports
// are not findings.
package main

import (
	"fmt"

	"repro/internal/app"
)

// Exported has no caller, and is no finding.
func Exported() {}

func main() { fmt.Println(app.Run()) }
