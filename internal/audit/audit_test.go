package audit

import (
	"bytes"
	"sync"
	"testing"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/store"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

// defectProfile builds a minimal validating profile that rejects exactly
// the named defects.
func defectProfile(reject ...proxyengine.UpstreamDefect) proxyengine.Profile {
	prof := proxyengine.Profile{
		IssuerCN: "Audit Property Test CA",
	}
	prof.Upstream.Validate = true
	for _, d := range reject {
		prof.Upstream.Reject[d] = true
	}
	return prof
}

// recordingSink collects every measurement the battery emits.
type recordingSink struct {
	mu sync.Mutex
	ms []core.Measurement
}

func (s *recordingSink) Ingest(m core.Measurement) {
	s.mu.Lock()
	s.ms = append(s.ms, m)
	s.mu.Unlock()
}

func (s *recordingSink) hosts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, m := range s.ms {
		out[m.Host]++
	}
	return out
}

// cellsByDefect indexes one product's run output.
func cellsByDefect(t *testing.T, grid *store.AuditStore) map[string]store.AuditCell {
	t.Helper()
	out := make(map[string]store.AuditCell)
	for _, c := range grid.Cells() {
		out[c.Defect] = c
	}
	if len(out) != len(store.AuditDefects) {
		t.Fatalf("battery produced %d cells, want %d (every column exercised)", len(out), len(store.AuditDefects))
	}
	return out
}

// TestRejectingProfileFailsSpliceAndLeaksNothing is the negative
// property: for every defect class, a profile that rejects exactly that
// defect must fail the splice on that cell — and no capture for that
// origin may reach the sink.
func TestRejectingProfileFailsSpliceAndLeaksNothing(t *testing.T) {
	for d := proxyengine.UpstreamDefect(0); int(d) < proxyengine.NumUpstreamDefects; d++ {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			sink := &recordingSink{}
			grid, err := Run(Config{
				Entries: []Entry{{Name: "reject-" + d.String(), Profile: defectProfile(d)}},
				Seed:    7,
				Sink:    sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			cells := cellsByDefect(t, grid)

			target := cells[d.String()]
			if target.Accepted {
				t.Fatalf("profile rejecting %s accepted its cell: %+v", d, target)
			}
			if !cells["clean"].Accepted {
				t.Fatalf("clean control must always splice: %+v", cells["clean"])
			}
			// Every other defect cell is accepted (masked forge) — the
			// policy is per-defect, not all-or-nothing.
			for _, other := range store.AuditDefects[1:] {
				if other == d.String() {
					continue
				}
				if !cells[other].Accepted {
					t.Errorf("cell %s rejected by a profile that only rejects %s", other, d)
				}
			}
			// The rejected origin produced no measurement; the accepted
			// origins each produced exactly one.
			hosts := sink.hosts()
			if n := hosts[HostFor(d.String())]; n != 0 {
				t.Fatalf("rejected defect %s leaked %d captures into the sink", d, n)
			}
			for _, other := range store.AuditDefects {
				if other == d.String() {
					continue
				}
				if n := hosts[HostFor(other)]; n != 1 {
					t.Errorf("accepted cell %s produced %d sink measurements, want 1", other, n)
				}
			}
		})
	}
}

// TestAcceptingProfileCapturesEverything is the positive property: a
// validating profile that rejects nothing splices every cell, and every
// capture that reaches the sink is a forgery (proxied, not the origin's
// own chain).
func TestAcceptingProfileCapturesEverything(t *testing.T) {
	sink := &recordingSink{}
	grid, err := Run(Config{
		Entries: []Entry{{Name: "accept-all", Profile: defectProfile()}},
		Seed:    7,
		Sink:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := cellsByDefect(t, grid)
	for _, defect := range store.AuditDefects {
		if !cells[defect].Accepted {
			t.Errorf("accept-all profile rejected cell %s", defect)
		}
		if n := sink.hosts()[HostFor(defect)]; n != 1 {
			t.Errorf("cell %s produced %d sink measurements, want 1", defect, n)
		}
	}
	for _, m := range sink.ms {
		if !m.Obs.Proxied {
			t.Errorf("sink measurement for %s not flagged proxied — battery leaked a non-forged capture", m.Host)
		}
	}
}

// TestLegacyRejectAllProfile: Bitdefender's reject-all upstream policy
// refuses every defective origin but passes the clean control.
func TestLegacyRejectAllProfile(t *testing.T) {
	p := classify.ProductByName("Bitdefender")
	if p == nil {
		t.Fatal("Bitdefender missing from classify database")
	}
	sink := &recordingSink{}
	grid, err := Run(Config{
		Entries: EntriesFromProducts([]classify.Product{*p}),
		Seed:    7,
		Sink:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := cellsByDefect(t, grid)
	if !cells["clean"].Accepted {
		t.Fatal("Bitdefender must splice the clean origin")
	}
	for _, defect := range store.AuditDefects[1:] {
		if cells[defect].Accepted {
			t.Errorf("Bitdefender accepted defect %s", defect)
		}
		if n := sink.hosts()[HostFor(defect)]; n != 0 {
			t.Errorf("Bitdefender leaked %d captures for %s", n, defect)
		}
	}
}

// TestBatteryDeterministic: one seed, two runs, identical grids and
// identical rendered bytes.
func TestBatteryDeterministic(t *testing.T) {
	products := []classify.Product{}
	for _, name := range []string{"Bitdefender", "Kurupira.NET", "Fortinet"} {
		p := classify.ProductByName(name)
		if p == nil {
			t.Fatalf("%s missing from classify database", name)
		}
		products = append(products, *p)
	}
	run := func() []byte {
		grid, err := Run(Config{Entries: EntriesFromProducts(products), Seed: 2016})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := grid.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two battery runs with one seed differ:\n%s\nvs\n%s", a, b)
	}
}

// TestMintOriginsClassification: every minted chain classifies to exactly
// its own defect under the battery clock, and the clean chain to none —
// the battery's ground truth is self-consistent.
func TestMintOriginsClassification(t *testing.T) {
	origins, err := MintOrigins(nil)
	if err != nil {
		t.Fatal(err)
	}
	roots := origins.Root.CertPool()
	revoked := origins.RevokedHook()
	want := map[string]string{
		"clean":          "clean",
		"expired":        "expired",
		"self-signed":    "self-signed",
		"wrong-name":     "wrong-name",
		"untrusted-root": "untrusted-root",
		"revoked":        "revoked",
	}
	for defect, chainDER := range origins.Chains {
		chain, err := x509util.ParseChain(chainDER)
		if err != nil {
			t.Fatalf("%s: parse: %v", defect, err)
		}
		set := proxyengine.ClassifyUpstreamChain(HostFor(defect), chain, roots, Clock(), revoked)
		if got := set.String(); got != want[defect] {
			t.Errorf("chain %s classifies as %q, want %q", defect, got, want[defect])
		}
	}
}

// TestRelayDetection: a relaying profile shows RelayedVersion on the
// clean cell; a fixed-version profile does not.
func TestRelayDetection(t *testing.T) {
	relay := defectProfile()
	relay.Upstream.RelayClientVersion = true
	fixed := defectProfile()

	grid, err := Run(Config{
		Entries: []Entry{
			{Name: "relaying", Profile: relay},
			{Name: "fixed", Profile: fixed},
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	byProduct := make(map[string]store.AuditCell)
	for _, c := range grid.Cells() {
		if c.Defect == "clean" {
			byProduct[c.Product] = c
		}
	}
	if !byProduct["relaying"].RelayedVersion {
		t.Error("relaying profile did not echo the client's TLS 1.1 upstream")
	}
	if byProduct["fixed"].RelayedVersion {
		t.Error("fixed-version profile flagged as relaying")
	}
	if v := byProduct["fixed"].OfferedVersion; v != tlswire.VersionTLS12 {
		t.Errorf("fixed profile offered %#04x on the clean cell, want TLS 1.2", v)
	}
}

// TestRunRejectsEmptyConfig and bad fault specs fail loudly.
func TestRunHarnessErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("Run with no entries must error")
	}
	if _, err := Run(Config{
		Entries:   []Entry{{Name: "x", Profile: defectProfile()}},
		FaultSpec: "no-such-scenario-xyz",
	}); err == nil {
		t.Error("Run with a bad fault spec must error")
	}
}
