package a

// Unused is exported and nothing calls it: flagged.
func Unused() {}

// OnlyOwnTest is called by this package's test alone: flagged.
func OnlyOwnTest() {}

// RootTestOnly is called by the root package's test: used.
func RootTestOnly() {}

// Base is embedded in T; the embedded field counts as used.
type Base struct{}

// T is passed to b.Run as a b.Doer.
type T struct {
	Base // an embedded field: used
}

// Tagged carries struct tags, so reflection may read any of its fields:
// they are used.
type Tagged struct {
	Count int `json:"count"`
	Note  string
}

// String is used: fmt calls it.
func (T) String() string { return "t" }

// Do is used: it satisfies b.Doer, declared in another package.
func (T) Do() {}

// Point's Y is a field nothing selects: flagged.
type Point struct {
	X, Y int
}

// Pair is built with an unkeyed literal, which sets both fields: used.
type Pair struct {
	L, R int
}
