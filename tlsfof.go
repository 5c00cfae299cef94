package tlsfof

import (
	"fmt"
	"io"
	"net"
	"time"

	"tlsfof/internal/adsim"
	"tlsfof/internal/analysis"
	"tlsfof/internal/classify"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/mitigate"
	"tlsfof/internal/policy"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

// Re-exported core types. The facade aliases the internal implementations
// so that example applications, the CLI tools, and tests all speak one
// vocabulary.
type (
	// Observation is the structured result of comparing an observed
	// certificate chain with the authoritative one.
	Observation = core.Observation
	// Measurement is one completed certificate test with client context.
	Measurement = core.Measurement
	// Category is a claimed-issuer class from the paper's taxonomy.
	Category = classify.Category
	// StudyConfig parameterizes a simulated measurement study.
	StudyConfig = study.Config
	// StudyResult is a completed study with its populated store.
	StudyResult = study.Result
	// BaselineResult summarizes a Huang-style whale-only measurement.
	BaselineResult = study.BaselineResult
	// ProxyProfile describes an interception product's behavior.
	ProxyProfile = proxyengine.Profile
	// Host is one probe target with its Table 8 category.
	Host = hostdb.Host
)

// Study identifiers for StudyConfig.Study.
const (
	Study1 = clientpop.Study1 // January 2014: 1 host, global campaign
	Study2 = clientpop.Study2 // October 2014: 18 hosts, 6 campaigns
)

// ProbeReport is what a wire probe captures from one server.
type ProbeReport struct {
	// ChainDER is the presented certificate chain, leaf first.
	ChainDER [][]byte
	// ChainPEM is the same chain in the tool's concatenated-PEM format.
	ChainPEM []byte
	// NegotiatedVersion is the TLS version from the ServerHello.
	NegotiatedVersion uint16
	// HandshakeTime is ClientHello→Certificate latency.
	HandshakeTime time.Duration
}

// Probe performs the paper's partial TLS handshake against addr
// (host:port), returning the certificate chain the network path presents.
// serverName sets SNI ("" derives it from addr). This is the measurement
// tool's client side (§3) on a real socket.
func Probe(addr, serverName string, timeout time.Duration) (*ProbeReport, error) {
	res, err := tlswire.ProbeAddr(addr, tlswire.ProbeOptions{
		ServerName: serverName,
		Timeout:    timeout,
	})
	if err != nil {
		return nil, err
	}
	return &ProbeReport{
		ChainDER:          res.ChainDER,
		ChainPEM:          x509util.EncodeChainPEM(res.ChainDER),
		NegotiatedVersion: res.ServerHello.Version,
		HandshakeTime:     res.HandshakeTime,
	}, nil
}

// ProbeConn runs the partial handshake on an established connection.
func ProbeConn(conn net.Conn, serverName string, timeout time.Duration) (*ProbeReport, error) {
	res, err := tlswire.Probe(conn, tlswire.ProbeOptions{ServerName: serverName, Timeout: timeout})
	if err != nil {
		return nil, err
	}
	return &ProbeReport{
		ChainDER:          res.ChainDER,
		ChainPEM:          x509util.EncodeChainPEM(res.ChainDER),
		NegotiatedVersion: res.ServerHello.Version,
		HandshakeTime:     res.HandshakeTime,
	}, nil
}

// CheckPolicy fetches addr's Flash socket policy file and reports whether
// it permits probing port 443 from any domain — the eligibility test behind
// the paper's Table 1 host selection.
func CheckPolicy(addr string, timeout time.Duration) (permissive bool, err error) {
	f, err := policy.FetchAddr(addr, timeout)
	if err != nil {
		return false, err
	}
	return f.PermissiveFor(443), nil
}

// Detect compares the authoritative chain for hostname with an observed
// chain (both leaf-first DER) and returns the observation: proxied or not,
// mismatch anatomy, and claimed-issuer classification.
func Detect(hostname string, authoritativeDER, observedDER [][]byte) (Observation, error) {
	return core.Observe(hostname, authoritativeDER, observedDER, defaultClassifier)
}

// DetectPEM is Detect over concatenated-PEM inputs (the tool's wire
// format).
func DetectPEM(hostname string, authoritativePEM, observedPEM []byte) (Observation, error) {
	auth, err := x509util.DecodeChainPEM(authoritativePEM)
	if err != nil {
		return Observation{}, fmt.Errorf("authoritative chain: %w", err)
	}
	obs, err := x509util.DecodeChainPEM(observedPEM)
	if err != nil {
		return Observation{}, fmt.Errorf("observed chain: %w", err)
	}
	return Detect(hostname, auth, obs)
}

var defaultClassifier = classify.NewClassifier()

// ClassifyIssuer classifies a claimed issuer by its Organization, Common
// Name, and Organizational Unit strings, returning the category label used
// in Tables 5/6.
func ClassifyIssuer(org, cn, ou string) Category {
	return defaultClassifier.Classify(org, cn, ou).Category
}

// RunStudy executes a full simulated reproduction of one of the paper's
// studies (fast mode; see DESIGN.md §5). Scale 1.0 reproduces paper-size
// campaigns (2.9M / 12.3M certificate tests). The result is a function of
// (study, seed, scale) alone; a paper-size run takes seconds, so an
// interrupted one is simply rerun. Runs over one StudyConfig.Pool share
// the world (hosts, PKI, forged chains) the first of them built.
func RunStudy(cfg StudyConfig) (*StudyResult, error) {
	return study.Run(cfg)
}

// RunHuangBaseline measures the same population at a whale-class site
// only, reproducing the comparison with Huang et al.'s Facebook-specific
// study (§8: 0.41% broad vs 0.20% whale-only).
func RunHuangBaseline(cfg StudyConfig) (*BaselineResult, error) {
	return study.RunHuangBaseline(cfg)
}

// Table identifies one of the paper's evaluation artifacts.
type Table string

// The renderable artifacts.
const (
	TableHosts           Table = "1"        // Table 1: probe host list
	TableCampaigns       Table = "2"        // Table 2: campaign statistics
	TableCountriesFirst  Table = "3"        // Table 3: by country, study 1
	TableIssuers         Table = "4"        // Table 4: issuer organizations
	TableClassesFirst    Table = "5"        // Table 5: classification, study 1
	TableClassesSecond   Table = "6"        // Table 6: classification, study 2
	TableCountriesSecond Table = "7"        // Table 7: by country, study 2
	TableHostTypes       Table = "8"        // Table 8: by host type
	TableNegligence      Table = "5.2"      // §5.2 negligence report
	TableProducts        Table = "products" // §6.4 product diversity
	Figure7ASCII         Table = "fig7"     // Figure 7 heatmap (ASCII)
	Figure7SVG           Table = "fig7svg"  // Figure 7 heatmap (SVG)
)

// WriteTable renders one evaluation artifact from a study result.
func WriteTable(w io.Writer, res *StudyResult, t Table) error {
	switch t {
	case TableHosts:
		return analysis.Table1(w, res.Hosts)
	case TableCampaigns:
		outs := append([]adsim.Outcome(nil), res.Outcomes...)
		adsim.SortOutcomes(outs)
		return analysis.Table2(w, outs, res.Total)
	case TableCountriesFirst:
		return analysis.Table3(w, res.Store, res.Geo)
	case TableIssuers:
		return analysis.Table4(w, res.Store, 20)
	case TableClassesFirst:
		return analysis.Table5(w, res.Store)
	case TableClassesSecond:
		return analysis.Table6(w, res.Store)
	case TableCountriesSecond:
		return analysis.Table7(w, res.Store, res.Geo)
	case TableHostTypes:
		return analysis.Table8(w, res.Store)
	case TableNegligence:
		return analysis.Negligence(w, res.Store)
	case TableProducts:
		return analysis.Products(w, res.Store, 30)
	case Figure7ASCII:
		return analysis.Figure7ASCII(w, res.Store, res.Geo)
	case Figure7SVG:
		return analysis.Figure7SVG(w, res.Store, res.Geo)
	default:
		return fmt.Errorf("tlsfof: unknown table %q", t)
	}
}

// WriteBaseline renders the broad-vs-whale comparison.
func WriteBaseline(w io.Writer, res *StudyResult, base *BaselineResult) error {
	tot := res.Store.Totals()
	return analysis.BaselineComparison(w, tot.Tested, tot.Proxied, base.Host, base.Tested, base.Proxied)
}

// Totals reports a study's headline (tested, proxied) counts.
func Totals(res *StudyResult) (tested, proxied int) {
	t := res.Store.Totals()
	return t.Tested, t.Proxied
}

// Store returns the study's measurement database for custom queries.
func Store(res *StudyResult) *store.DB { return res.Store }

// GeoDB builds the synthetic geolocation database used by the studies.
func GeoDB() *geo.DB { return geo.NewDB() }

// Mitigation systems from the paper's §7 survey, built over the probe.
type (
	// PinStore is a trust-on-first-use certificate pin database.
	PinStore = mitigate.PinStore
	// Notary compares a client's observed chain against multi-path
	// vantage points (Perspectives-style).
	Notary = mitigate.Notary
	// NotaryVantage fetches the chain one vantage point sees for a host.
	NotaryVantage = mitigate.Vantage
)

// NewPinStore returns an empty TOFU pin store.
func NewPinStore() *PinStore { return mitigate.NewPinStore() }

// ProbeVantage adapts an address-resolving function into a notary vantage
// that captures chains with the standard probe.
func ProbeVantage(resolve func(host string) (addr string), timeout time.Duration) NotaryVantage {
	return func(host string) ([][]byte, error) {
		rep, err := Probe(resolve(host), host, timeout)
		if err != nil {
			return nil, err
		}
		return rep.ChainDER, nil
	}
}
