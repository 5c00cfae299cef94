package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tlsfof"
	"tlsfof/internal/analysis"
	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/study"
)

// keyStream is the entropy behind every RSA key the benchmark mints. It
// is one fixed stream, not derived from -seed: key material is fixture,
// not workload, and a fixed stream makes set-up do the same prime search
// on every run, so setup_s repeats. crypto/rsa de-determinises key
// generation by reading one extra byte half the time; the stream answers
// those one-byte reads without advancing, which makes the keys — and
// therefore every certificate chain in the inputs — identical run to run.
type keyStream struct{ rng *stats.RNG }

const keyStreamSeed = 0x746c73666f66 // "tlsfof"

func (k keyStream) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return k.rng.Read(p)
}

// world is the authoritative side every workload shares: the key pool
// (RSA key generation lives in set-up, never in a timed part), the
// study-2 probe hosts and one CA-signed chain per host, minted the way
// the study itself mints them.
type world struct {
	pool   *certgen.KeyPool
	hosts  []hostdb.Host
	auth   *study.Authoritative
	keygen time.Duration // spent in KeyPool.Prewarm
}

func newWorld(keySizes ...int) (*world, error) {
	// Four keys per size, as cmd/study's default pool holds.
	pool := certgen.NewKeyPool(4, keyStream{stats.NewRNG(keyStreamSeed)})
	t0 := time.Now()
	if err := <-pool.Prewarm(keySizes...); err != nil {
		return nil, fmt.Errorf("prewarm key pool: %w", err)
	}
	w := &world{pool: pool, hosts: hostdb.SecondStudyHosts(), keygen: time.Since(t0)}
	var err error
	if w.auth, err = study.BuildAuthoritative(w.hosts, pool); err != nil {
		return nil, err
	}
	return w, nil
}

// liveProducts are the four interception products the socket workloads
// mount: an upstream-validating antivirus, a masking parental filter,
// shared-key malware and a whale-whitelisting antivirus — one per
// behaviour family, the set TestLiveWireSmoke drives.
var liveProducts = []string{"Bitdefender", "Kurupira.NET", "IopFailZeroAccessCreate", "Kaspersky Lab ZAO"}

func (w *world) engines() ([]*proxyengine.Engine, error) {
	var out []*proxyengine.Engine
	for _, name := range liveProducts {
		p := classify.ProductByName(name)
		if p == nil {
			return nil, fmt.Errorf("product %q missing from the classify database", name)
		}
		e, err := proxyengine.New(proxyengine.FromProduct(p), proxyengine.Options{Pool: w.pool})
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// newCollector registers every authoritative chain, as reportd does from
// its -refdir.
func (w *world) newCollector(sink core.Sink, campaign string) *core.Collector {
	col := core.NewCollector(classify.NewClassifier(), geo.NewDB(), sink)
	col.Campaign = campaign
	for host, chain := range w.auth.Chains {
		col.SetAuthoritative(host, chain)
	}
	return col
}

// repoRoot walks up from the working directory to the module the
// benchmark measures.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module tlsfof\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no tlsfof module above the working directory")
		}
		dir = parent
	}
}

// outDir is bench/out: span files, run summaries and every WAL and data
// directory a workload needs live there, inside the checkout.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o777)
}

// scratch hands out data directories under one per-process root that
// main removes on exit.
type scratch struct{ root string }

func newScratch() (*scratch, error) {
	out, err := outDir()
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir(pattern string) (string, error) { return os.MkdirTemp(s.root, pattern+"-") }

func (s *scratch) remove() { os.RemoveAll(s.root) }

// fsType names the filesystem under path from its statfs magic; fsync
// cost depends on it, so the run header records it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// studyArtifacts are the tables and the figure a study round renders:
// everything cmd/study -table=all -figure=7 prints for study 2.
var studyArtifacts = []tlsfof.Table{
	tlsfof.TableCampaigns, tlsfof.TableIssuers, tlsfof.TableClassesSecond,
	tlsfof.TableCountriesSecond, tlsfof.TableHostTypes, tlsfof.TableNegligence,
	tlsfof.TableProducts, tlsfof.Figure7ASCII,
}

// renderStudy renders every study artifact into w.
func renderStudy(w io.Writer, res *tlsfof.StudyResult) error {
	for _, t := range studyArtifacts {
		if err := tlsfof.WriteTable(w, res, t); err != nil {
			return fmt.Errorf("render table %s: %w", t, err)
		}
	}
	return nil
}

// tableHash is the identity of a rendered artifact set.
type tableHash [sha256.Size]byte

func hashStudyTables(res *tlsfof.StudyResult) (tableHash, error) {
	h := sha256.New()
	if err := renderStudy(h, res); err != nil {
		return tableHash{}, err
	}
	return tableHash(h.Sum(nil)), nil
}

// checkGolden renders study 2 at the scale and seed of the checked-in
// fixtures and compares byte for byte: whatever a later change does to
// speed, the paper's tables must not move.
func checkGolden(w *world) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	res, err := tlsfof.RunStudy(tlsfof.StudyConfig{Study: tlsfof.Study2, Seed: 2014, Scale: 0.01, Pool: w.pool})
	if err != nil {
		return fmt.Errorf("golden study: %w", err)
	}
	db := res.Store
	renders := map[string]func(io.Writer) error{
		"table2.txt":     func(b io.Writer) error { return analysis.Table2(b, res.Outcomes, res.Total) },
		"table4.txt":     func(b io.Writer) error { return analysis.Table4(b, db, 0) },
		"table6.txt":     func(b io.Writer) error { return analysis.Table6(b, db) },
		"table7.txt":     func(b io.Writer) error { return analysis.Table7(b, db, res.Geo) },
		"table8.txt":     func(b io.Writer) error { return analysis.Table8(b, db) },
		"negligence.txt": func(b io.Writer) error { return analysis.Negligence(b, db) },
		"products.txt":   func(b io.Writer) error { return analysis.Products(b, db, 0) },
	}
	for name, render := range renders {
		var got bytes.Buffer
		if err := render(&got); err != nil {
			return fmt.Errorf("golden %s: %w", name, err)
		}
		want, err := os.ReadFile(filepath.Join(root, "testdata", "golden", name))
		if err != nil {
			return fmt.Errorf("golden fixture: %w", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("golden %s: rendered table differs from testdata/golden", name)
		}
	}
	return nil
}

// liveTables renders what reportd's /table endpoints serve for a live
// store; the socket workloads compare these against a control store.
func liveTables(db *store.DB) ([]byte, error) {
	var b bytes.Buffer
	for _, render := range []func(io.Writer, *store.DB) error{
		func(w io.Writer, db *store.DB) error { return analysis.Table4(w, db, 25) },
		analysis.Table5,
		analysis.Negligence,
	} {
		if err := render(&b, db); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}
