package a

import "testing"

// A package's own tests do not count as uses.
func TestOnlyOwnTest(t *testing.T) {
	OnlyOwnTest()
}
