package b

// Doer is an interface another package's type satisfies.
type Doer interface{ Do() }

// Run calls Do through the interface.
func Run(d Doer) { d.Do() }
