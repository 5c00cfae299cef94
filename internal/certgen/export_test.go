package certgen

import "sync/atomic"

// countMints makes p count every key it mints from now on.
func (p *KeyPool) countMints() *atomic.Int32 {
	var n atomic.Int32
	p.onMint = func() { n.Add(1) }
	return &n
}
