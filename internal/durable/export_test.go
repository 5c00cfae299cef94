package durable

// Hooks for the external durable_test package.

// CheckBatch is the check a frame passes before a replica appends it: a
// decode into b that materializes no string.
func CheckBatch(b *Batch, p []byte) error { return b.decode(p, false) }

// SyntheticMeasurements is syntheticMeasurements.
var SyntheticMeasurements = syntheticMeasurements
