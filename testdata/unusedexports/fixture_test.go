package fixture

import (
	"testing"

	"fixture/internal/a"
)

// The root package's tests are gates: what they call counts as used.
func TestGate(t *testing.T) {
	a.RootTestOnly()
}
