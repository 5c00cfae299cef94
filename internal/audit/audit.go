// Package audit runs the enterprise-appliance audit grid: a
// hostile-origin battery in the spirit of Waked et al. (*The Sorry State
// of TLS Security in Enterprise Interception Appliances*). Each product
// profile from the classify database is mounted as a live interceptor on
// the simulated network and made to fetch origins whose chains carry
// exactly one defect each — expired, self-signed, wrong-name,
// untrusted-root, revoked — plus a clean control. Whether the splice
// completes (a forged capture reaches the client) is the cell verdict;
// the origin additionally records the product's upstream ClientHello, so
// version downgrades and weak cipher offers are graded from what was
// actually put on the wire, not from the profile's declaration.
package audit

import (
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/faultnet"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/tlswire"
)

// Domain suffixes every battery origin host: "<defect>.audit.test".
const Domain = ".audit.test"

// HostFor names the battery origin serving one defect column.
func HostFor(defect string) string { return defect + Domain }

// Clock is the battery's fixed wall clock — six months into the study
// period, inside every honest chain's validity window and past the
// expired chain's. Engines and classification both run on it, so the
// grid is independent of the real date.
func Clock() time.Time { return certgen.DefaultNotBefore.AddDate(0, 6, 0) }

// RevokedSerial is the fixed serial number of the revoked origin leaf;
// the battery installs a revocation hook matching it into every profile.
var RevokedSerial = big.NewInt(0x5EED)

// Entry is one battery subject: a display name and the profile to mount.
type Entry struct {
	Name    string
	Profile proxyengine.Profile
}

// EntriesFromProducts builds battery entries for product records via
// proxyengine.FromProduct, in database order.
func EntriesFromProducts(products []classify.Product) []Entry {
	out := make([]Entry, 0, len(products))
	for i := range products {
		p := &products[i]
		out = append(out, Entry{Name: p.DisplayName(), Profile: proxyengine.FromProduct(p)})
	}
	return out
}

// Config configures one battery run.
type Config struct {
	// Entries are the products under audit (required, non-empty).
	Entries []Entry
	// Seed determines the battery's key material when Pool is nil: the
	// pool draws from a stats.RNG stream, so two runs with one seed mint
	// identical keys, chains, and report cards.
	Seed uint64
	// Pool supplies all key material, overriding Seed when non-nil.
	Pool *certgen.KeyPool
	// FaultSpec, when non-empty, is a faultnet plan specification mounted
	// on the proxies' origin-facing dials — the battery's origins turn
	// hostile at the transport layer too. Empty keeps the wire clean
	// (the deterministic golden configuration).
	FaultSpec string
	// Sink, when non-nil, receives a measurement for every accepted cell
	// (the forged capture observed against the defective origin chain) —
	// the same shape the live collector ingests. Rejected cells
	// deliberately produce nothing: "no capture reaches ingest" is the
	// property tests' observable.
	Sink core.Sink
}

// Origins is the minted hostile-origin set, shared by every product in a
// run. Exported so the fuzz target can seed its corpus with the exact
// chains the battery serves.
type Origins struct {
	// Root is the "public internet" CA every audited profile trusts.
	Root *certgen.CA
	// Rogue signs the untrusted-root chain and is trusted by no one.
	Rogue *certgen.CA
	// Chains maps each store.AuditDefects column to the leaf-first DER
	// chain its origin serves.
	Chains map[string][][]byte
}

// RevokedHook returns the revocation-list check the battery installs:
// exactly the revoked origin's serial is on the list.
func (o *Origins) RevokedHook() func(*x509.Certificate) bool {
	return func(c *x509.Certificate) bool {
		return c.SerialNumber != nil && c.SerialNumber.Cmp(RevokedSerial) == 0
	}
}

// MintOrigins builds the six origin chains, one defect each: the clean
// control and expired/wrong-name/revoked leaves under the trusted root,
// a lone self-signed leaf, and a rogue-root chain.
func MintOrigins(pool *certgen.KeyPool) (*Origins, error) {
	if pool == nil {
		pool = certgen.DefaultPool
	}
	root, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Audit Public Root"},
		KeyBits: 1024,
		Pool:    pool,
		KeyName: "audit-public-root",
	})
	if err != nil {
		return nil, fmt.Errorf("audit: mint public root: %w", err)
	}
	rogue, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Audit Rogue Root"},
		KeyBits: 1024,
		Pool:    pool,
		KeyName: "audit-rogue-root",
	})
	if err != nil {
		return nil, fmt.Errorf("audit: mint rogue root: %w", err)
	}

	chains := make(map[string][][]byte, len(store.AuditDefects))
	leaf := func(ca *certgen.CA, cfg certgen.LeafConfig) ([][]byte, error) {
		cfg.KeyBits = 1024
		cfg.Pool = pool
		l, err := ca.IssueLeaf(cfg)
		if err != nil {
			return nil, err
		}
		return l.ChainDER, nil
	}

	if chains["clean"], err = leaf(root, certgen.LeafConfig{CommonName: HostFor("clean")}); err != nil {
		return nil, fmt.Errorf("audit: mint clean origin: %w", err)
	}
	if chains["expired"], err = leaf(root, certgen.LeafConfig{
		CommonName: HostFor("expired"),
		NotBefore:  certgen.DefaultNotBefore,
		NotAfter:   certgen.DefaultNotBefore.AddDate(0, 1, 0), // dead by Clock()
	}); err != nil {
		return nil, fmt.Errorf("audit: mint expired origin: %w", err)
	}
	if chains["wrong-name"], err = leaf(root, certgen.LeafConfig{
		CommonName: "imposter" + Domain, // served for wrong-name.audit.test
	}); err != nil {
		return nil, fmt.Errorf("audit: mint wrong-name origin: %w", err)
	}
	if chains["untrusted-root"], err = leaf(rogue, certgen.LeafConfig{CommonName: HostFor("untrusted-root")}); err != nil {
		return nil, fmt.Errorf("audit: mint untrusted origin: %w", err)
	}

	// Self-signed: a lone end-entity cert signing itself.
	ssKey, err := pool.Named("audit-self-signed", 1024)
	if err != nil {
		return nil, err
	}
	ssDER, err := certgen.Issue(certgen.Template{
		Subject:  pkix.Name{CommonName: HostFor("self-signed")},
		DNSNames: []string{HostFor("self-signed")},
	}, &ssKey.PublicKey, ssKey, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("audit: mint self-signed origin: %w", err)
	}
	chains["self-signed"] = [][]byte{ssDER}

	// Revoked: honest chain under the trusted root, fixed serial on the
	// battery's revocation list.
	rvKey, err := pool.Named("audit-revoked", 1024)
	if err != nil {
		return nil, err
	}
	rvDER, err := certgen.Issue(certgen.Template{
		Subject:      pkix.Name{CommonName: HostFor("revoked")},
		DNSNames:     []string{HostFor("revoked")},
		SerialNumber: RevokedSerial,
	}, &rvKey.PublicKey, root.Key, root.DER, nil)
	if err != nil {
		return nil, fmt.Errorf("audit: mint revoked origin: %w", err)
	}
	chains["revoked"] = [][]byte{rvDER, root.DER}

	return &Origins{Root: root, Rogue: rogue, Chains: chains}, nil
}

// recordedHello is what the origin saw on the proxy's upstream hello.
type recordedHello struct {
	version uint16
	weak    bool
}

// helloRecorder captures, per origin host, the most recent upstream
// ClientHello. take reads-and-clears so a cell never inherits a hello
// from an earlier product (the battery is sequential).
type helloRecorder struct {
	mu   sync.Mutex
	last map[string]recordedHello
}

func (r *helloRecorder) record(host string, ch *tlswire.ClientHello) {
	weak := false
	for _, id := range ch.CipherSuites {
		if tlswire.WeakCipherSuite(id) {
			weak = true
			break
		}
	}
	r.mu.Lock()
	r.last[host] = recordedHello{version: ch.Version, weak: weak}
	r.mu.Unlock()
}

func (r *helloRecorder) take(host string) (recordedHello, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.last[host]
	delete(r.last, host)
	return h, ok
}

// validates reports whether a profile inspects origin chains in any way —
// the report card's "Validates" column.
func validates(p proxyengine.Profile) bool {
	if p.Upstream.Validate || p.Upstream.Revoked != nil {
		return true
	}
	for _, r := range p.Upstream.Reject {
		if r {
			return true
		}
	}
	return false
}

// Run executes the battery and returns the populated grid. Every
// (entry, defect) pair produces exactly one cell; an error means the
// harness itself failed (bad fault spec, mint failure), never that a
// product rejected an origin.
func Run(cfg Config) (*store.AuditStore, error) {
	if len(cfg.Entries) == 0 {
		return nil, fmt.Errorf("audit: no entries")
	}
	pool := cfg.Pool
	if pool == nil {
		pool = certgen.NewKeyPool(2, stats.NewRNG(cfg.Seed))
	}
	origins, err := MintOrigins(pool)
	if err != nil {
		return nil, err
	}
	var plan *faultnet.Plan
	if cfg.FaultSpec != "" {
		plan, err = faultnet.ParseSpec(cfg.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("audit: fault spec: %w", err)
		}
	}

	n := faultnet.NewNetwork()
	rec := &helloRecorder{last: make(map[string]recordedHello)}
	for _, defect := range store.AuditDefects {
		host := HostFor(defect)
		chain := origins.Chains[defect]
		n.Listen(host, func(c net.Conn) {
			defer c.Close()
			tlswire.Respond(c, tlswire.ResponderConfig{
				Chain:         tlswire.StaticChain(chain),
				OnClientHello: func(ch *tlswire.ClientHello) { rec.record(host, ch) },
			})
		})
	}

	classifier := classify.NewClassifier()
	grid := store.NewAuditStore()
	for _, entry := range cfg.Entries {
		profile := entry.Profile
		profile.UpstreamRoots = origins.Root.CertPool()
		profile.Upstream.Revoked = origins.RevokedHook()
		engine, err := proxyengine.New(profile, proxyengine.Options{
			Pool: pool, CAKeyBits: 1024, Now: Clock,
		})
		if err != nil {
			return nil, fmt.Errorf("audit: engine for %q: %w", entry.Name, err)
		}
		dial := n.Dial
		if plan != nil {
			dial = plan.Dialer(dial)
		}
		ic := proxyengine.NewInterceptor(engine, dial)
		ic.Timeout = 5 * time.Second
		view := faultnet.Intercepted(func(clientConn net.Conn) {
			defer clientConn.Close()
			ic.HandleConn(clientConn)
		})

		for _, defect := range store.AuditDefects {
			host := HostFor(defect)
			cell := store.AuditCell{
				Product:   entry.Name,
				Defect:    defect,
				Validated: validates(entry.Profile),
			}
			captured, probeErr := probeCell(view, host, 0)
			cell.Accepted = probeErr == nil
			if hello, ok := rec.take(host); ok {
				cell.OfferedVersion = hello.version
				cell.WeakCiphers = hello.weak
			}
			if defect == "clean" {
				// Relay detection: a TLS 1.1 client behind a faithful
				// proxy shows up as a TLS 1.1 upstream hello (a fresh
				// dial — the interceptor's chain cache is keyed by
				// version for relaying profiles). A fixed-version proxy
				// hits its cache and the origin sees nothing.
				_, _ = probeCell(view, host, tlswire.VersionTLS11)
				if hello, ok := rec.take(host); ok && hello.version == tlswire.VersionTLS11 {
					cell.RelayedVersion = true
				}
			}
			if cell.Accepted && cfg.Sink != nil {
				obs, err := core.Observe(host, origins.Chains[defect], captured, classifier)
				if err != nil {
					return nil, fmt.Errorf("audit: observe %s/%s: %w", entry.Name, defect, err)
				}
				cfg.Sink.Ingest(core.Measurement{
					Time:     Clock(),
					Host:     host,
					Campaign: "audit",
					Obs:      obs,
				})
			}
			grid.Record(cell)
		}
	}
	return grid, nil
}

// probeCell performs one client handshake through the intercepted view
// and returns the captured (forged) chain. version 0 probes at the
// client default (TLS 1.2).
func probeCell(view func(string) (net.Conn, error), host string, version uint16) ([][]byte, error) {
	conn, err := view(host)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	res, err := tlswire.Probe(conn, tlswire.ProbeOptions{
		ServerName: host,
		Version:    version,
		Timeout:    5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	return res.ChainDER, nil
}
