package mitigate

import (
	"fmt"
	"sync"

	"tlsfof/internal/x509util"
)

// PinVerdict is the outcome of checking an observation against a pin.
type PinVerdict int

// Pinning outcomes.
const (
	// PinTOFU: first sighting; the chain was pinned.
	PinTOFU PinVerdict = iota
	// PinMatch: the presented chain matches the pin.
	PinMatch
	// PinMismatch: the presented chain differs from the pin — either the
	// site rotated keys or something is on path.
	PinMismatch
)

// String names the verdict.
func (v PinVerdict) String() string {
	switch v {
	case PinTOFU:
		return "tofu"
	case PinMatch:
		return "match"
	case PinMismatch:
		return "MISMATCH"
	default:
		return fmt.Sprintf("PinVerdict(%d)", int(v))
	}
}

// PinStore is a trust-on-first-use pin database keyed by host. Safe for
// concurrent use.
type PinStore struct {
	mu   sync.Mutex
	pins map[string]string // host → chain fingerprint
}

// NewPinStore returns an empty store.
func NewPinStore() *PinStore {
	return &PinStore{pins: make(map[string]string)}
}

// Preload pins a chain without an observation — how browsers shipped
// Google's pins in advance to avoid the TOFU window.
func (s *PinStore) Preload(host string, chainDER [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[host] = x509util.ChainFingerprint(chainDER)
}

// Check evaluates an observed chain for host, pinning on first use.
func (s *PinStore) Check(host string, chainDER [][]byte) PinVerdict {
	fp := x509util.ChainFingerprint(chainDER)
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned, ok := s.pins[host]
	if !ok {
		s.pins[host] = fp
		return PinTOFU
	}
	if pinned == fp {
		return PinMatch
	}
	return PinMismatch
}

// Len reports how many hosts are pinned.
func (s *PinStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pins)
}

// ---- Multi-path notary ----

// Vantage is one notary observation point: it fetches the chain it sees
// for a host. In tests and simulations this is an in-memory view or direct
// probe; over the real Internet it would be a remote notary server.
type Vantage func(host string) (chainDER [][]byte, err error)

// NotaryVerdict is the outcome of a multi-path check.
type NotaryVerdict struct {
	// Agree counts vantage points whose view matches the client's.
	Agree int
	// Disagree counts vantage points that saw a different chain.
	Disagree int
	// Failed counts vantage points that could not observe the host.
	Failed int
	// Quorum is true when a majority of successful vantage points agree
	// with the client — the Perspectives accept criterion.
	Quorum bool
}

// Notary queries vantage points about hosts' certificates and compares
// their views with a client's observation.
type Notary struct {
	Vantages []Vantage
}

// Check compares the client's observed chain for host against every
// vantage point's view.
//
// The asymmetry the paper's §7 describes falls out of the topology: a TLS
// proxy in front of the *client* is on none of the notary paths, so every
// healthy vantage disagrees with the client's view and quorum fails; a
// compromised *server* (or a proxy in front of it) fools the notaries too,
// which is exactly the limitation multi-path probing is known for.
func (n *Notary) Check(host string, clientChainDER [][]byte) NotaryVerdict {
	var v NotaryVerdict
	for _, vantage := range n.Vantages {
		chain, err := vantage(host)
		if err != nil {
			v.Failed++
			continue
		}
		if x509util.ChainsEqual(chain, clientChainDER) {
			v.Agree++
		} else {
			v.Disagree++
		}
	}
	v.Quorum = v.Agree > v.Disagree
	return v
}

// Describe renders a one-line human verdict.
func (v NotaryVerdict) Describe() string {
	status := "certificate CONFIRMED by notary quorum"
	if !v.Quorum {
		status = "certificate REJECTED: client view disagrees with notaries (possible TLS proxy on the client path)"
	}
	return fmt.Sprintf("%s (agree=%d disagree=%d failed=%d)", status, v.Agree, v.Disagree, v.Failed)
}
