// Package lib exercises unusedexport: every exported name here either
// has a caller in non-test code or is a finding.
package lib

// Unused has no caller anywhere.
func Unused() {} // want `lib\.Unused has no caller outside tests`

// TestOnly is called from lib_test.go alone, which is not a use.
func TestOnly() int { return 1 } // want `lib\.TestOnly has no caller outside tests`

// UsedCrossPackage is called from internal/app.
func UsedCrossPackage() int { return helper() }

// UsedInOwnPackage is called by helper, in this package.
func UsedInOwnPackage() int { return 2 }

func helper() int { return UsedInOwnPackage() }

// UsedByLoader is called only from the use-only root (loader/).
func UsedByLoader() string { return "loaded" }

// UnusedVar, UnusedConst and UnusedType are the other kinds of name.
var UnusedVar = 1 // want `lib\.UnusedVar has no caller outside tests`

const UnusedConst = 2 // want `lib\.UnusedConst has no caller outside tests`

type UnusedType struct{} // want `lib\.UnusedType has no caller outside tests`

// Impl is used by internal/app.
type Impl struct{}

// String satisfies fmt.Stringer, which fmt calls: no direct caller is
// needed.
func (Impl) String() string { return "impl" }

// Extra is a value method nothing calls.
func (Impl) Extra() {} // want `lib\.Impl\.Extra has no caller outside tests`

// Reset is a pointer method nothing calls.
func (*Impl) Reset() {} // want `lib\.\(\*Impl\)\.Reset has no caller outside tests`

// Shape is an interface internal/app calls through.
type Shape interface{ Area() float64 }

// Square is a Shape; app calls Area only through the interface.
type Square struct{ Side float64 }

// Area satisfies Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Circle has an Area method that does not satisfy Shape: a match by
// name alone would wrongly excuse it.
type Circle struct{}

// Area takes an argument Shape's Area does not.
func (Circle) Area(scale int) float64 { return float64(scale) } // want `lib\.Circle\.Area has no caller outside tests`

// NewCircle is how app gets a Circle.
func NewCircle() Circle { return Circle{} }

// Box is generic; app calls Get on an instantiation only.
type Box[T any] struct{ v T }

// Get is used through Box[int].
func (b *Box[T]) Get() T { return b.v }

// Map is a generic func app instantiates.
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

// Waived has no caller but a reasoned waiver: no finding.
//
//qalint:ignore unusedexport testdata proving a reasoned waiver suppresses the finding.
func Waived() {}

// Reasonless has no caller and a waiver without a reason: both the
// waiver and the unused export are findings.
var (
	// want:below `qalint:ignore unusedexport needs a reason`
	//qalint:ignore unusedexport
	Reasonless = 3 // want `lib\.Reasonless has no caller outside tests`
)
