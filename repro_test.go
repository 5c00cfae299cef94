package tlsfof

// Facade and reproduction tests: exercise the public API end to end and
// assert the paper's headline shapes at meaningful scale.

import (
	"crypto/x509/pkix"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/policy"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/store"
	"tlsfof/internal/tlswire"
)

func TestFacadeProbeAndDetect(t *testing.T) {
	const host = "facade.example"
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Facade Root", Organization: []string{"Facade Org"}},
		KeyBits: 1024,
		KeyName: "facade-root",
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go tlswire.Server(ln, tlswire.ResponderConfig{Chain: tlswire.StaticChain(leaf.ChainDER)}, nil)

	rep, err := Probe(ln.Addr().String(), host, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ChainDER) != 2 || len(rep.ChainPEM) == 0 {
		t.Fatalf("probe report: %d certs, %d PEM bytes", len(rep.ChainDER), len(rep.ChainPEM))
	}
	obs, err := Detect(host, leaf.ChainDER, rep.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Proxied {
		t.Fatal("direct path flagged as proxied")
	}
	obs, err = DetectPEM(host, rep.ChainPEM, rep.ChainPEM)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Proxied {
		t.Fatal("PEM path flagged as proxied")
	}
}

func TestFacadeDetectsInterception(t *testing.T) {
	const host = "victim.example"
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Auth Root", Organization: []string{"Auth Org"}},
		KeyBits: 1024,
		KeyName: "facade-auth-root",
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstreamLn.Close()
	go tlswire.Server(upstreamLn, tlswire.ResponderConfig{Chain: tlswire.StaticChain(leaf.ChainDER)}, nil)

	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "Superfish, Inc.", IssuerOrg: "Superfish, Inc.",
	}, proxyengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ic := proxyengine.NewInterceptor(engine, func(string) (net.Conn, error) {
		return net.Dial("tcp", upstreamLn.Addr().String())
	})
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	go ic.Serve(proxyLn, nil)

	rep, err := Probe(proxyLn.Addr().String(), host, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := Detect(host, leaf.ChainDER, rep.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Proxied {
		t.Fatal("interception missed")
	}
	if obs.Category != classify.Malware || obs.ProductName != "Superfish, Inc." {
		t.Fatalf("classification = %v / %q", obs.Category, obs.ProductName)
	}
}

func TestFacadeCheckPolicy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go policy.ListenAndServe(ln, policy.PermissivePort443)
	ok, err := CheckPolicy(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("permissive policy not recognized")
	}
}

func TestClassifyIssuerFacade(t *testing.T) {
	if ClassifyIssuer("Bitdefender", "", "") != classify.BusinessPersonalFirewall {
		t.Error("Bitdefender misclassified")
	}
	if ClassifyIssuer("", "IopFailZeroAccessCreate", "") != classify.Malware {
		t.Error("CN-only malware misclassified")
	}
	if ClassifyIssuer("", "", "") != classify.Unknown {
		t.Error("null issuer misclassified")
	}
}

func TestWriteTableUnknown(t *testing.T) {
	res, err := RunStudy(StudyConfig{Study: Study1, Seed: 1, Scale: 0.002, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(io_discard{}, res, Table("nope")); err == nil {
		t.Fatal("unknown table accepted")
	}
}

type io_discard struct{}

func (io_discard) Write(p []byte) (int, error) { return len(p), nil }

// TestReproduceHeadlines runs both studies at 20% scale and asserts the
// paper's headline results hold; EXPERIMENTS.md records the full-scale
// equivalents. Skipped under -short.
func TestReproduceHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction run is slow")
	}
	const scale = 0.2

	res1, err := RunStudy(StudyConfig{Study: Study1, Seed: 2014, Scale: scale, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	t1 := res1.Store.Totals()
	// "1 in 250 TLS connections are TLS-proxied" (0.41%, ±0.04pp).
	if math.Abs(t1.Rate()-0.0041) > 0.0004 {
		t.Errorf("study-1 rate = %.4f%%, want ≈0.41%%", 100*t1.Rate())
	}

	res2, err := RunStudy(StudyConfig{Study: Study2, Seed: 2014, Scale: scale, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	t2 := res2.Store.Totals()
	if math.Abs(t2.Rate()-0.0041) > 0.0004 {
		t.Errorf("study-2 rate = %.4f%%, want ≈0.41%%", 100*t2.Rate())
	}
	// "It is surprising that the overall prevalence is identical in both
	// studies."
	if math.Abs(t1.Rate()-t2.Rate()) > 0.0006 {
		t.Errorf("study rates diverge: %.4f%% vs %.4f%%", 100*t1.Rate(), 100*t2.Rate())
	}

	// Huang baseline ≈ half the broad rate.
	base, err := RunHuangBaseline(StudyConfig{Study: Study1, Seed: 2014, Scale: scale, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	ratio := t1.Rate() / base.Rate()
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("broad/whale ratio = %.2f, want ≈2 (0.41%% vs 0.20%%)", ratio)
	}

	// Malware: the paper found eight distinct malware products proxying
	// 3,600+ connections across both studies.
	malwareConns := 0
	products := map[string]bool{}
	for _, st := range []*store.DB{res1.Store, res2.Store} {
		for _, p := range st.Products() {
			prod := classify.ProductByName(p.Name)
			if prod != nil && prod.Category == classify.Malware && !prod.SpamAssociated {
				malwareConns += p.Connections
				products[p.Name] = true
			}
		}
	}
	if len(products) < 6 {
		t.Errorf("distinct malware products observed = %d, want ≥6 of 8", len(products))
	}
	if float64(malwareConns) < 3600*scale*0.7 {
		t.Errorf("malware connections = %d, want ≳%.0f (3,600 scaled)", malwareConns, 3600*scale*0.7)
	}

	// Table 4 head order is stable at scale.
	top := res1.Store.IssuerOrgTop(3)
	if top[0].Key != "Bitdefender" {
		t.Errorf("top issuer = %q", top[0].Key)
	}

	// Render every artifact without error.
	for _, tab := range []Table{
		TableHosts, TableCampaigns, TableCountriesFirst, TableIssuers,
		TableClassesFirst, TableHostTypes, TableNegligence, TableProducts,
		Figure7ASCII, Figure7SVG,
	} {
		var sb strings.Builder
		res := res1
		if tab == TableClassesSecond || tab == TableCountriesSecond {
			res = res2
		}
		if err := WriteTable(&sb, res, tab); err != nil {
			t.Errorf("render %s: %v", tab, err)
		}
		if sb.Len() == 0 {
			t.Errorf("render %s produced nothing", tab)
		}
	}
}
