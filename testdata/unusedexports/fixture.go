// Package fixture is the module TestUnusedExportsRules scans: one case
// for each rule of the unused-export gate.
package fixture

import (
	"fixture/internal/a"
	"fixture/internal/b"
)

var (
	tagged a.Tagged
	pair   = a.Pair{1, 2}
)

func Run() int {
	b.Run(a.T{})
	return a.Point{X: 1}.X
}
