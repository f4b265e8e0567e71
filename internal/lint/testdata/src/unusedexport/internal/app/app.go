// Package app calls across the package boundary: none of these uses
// is a finding, in lib or here.
package app

import (
	"fmt"

	"repro/internal/lib"
)

// Run is called by cmd/tool.
func Run() string {
	var s lib.Shape = lib.Square{Side: 2}
	b := &lib.Box[int]{}
	xs := lib.Map([]int{1}, func(x int) int { return x + b.Get() })
	_ = lib.NewCircle()
	return fmt.Sprint(lib.UsedCrossPackage(), s.Area(), xs, lib.Impl{})
}
