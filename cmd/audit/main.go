// Command audit runs the enterprise-appliance audit grid: every product
// profile in the classify database (or a -products subset) is mounted as
// a live interceptor and driven through the hostile-origin battery —
// expired, self-signed, wrong-name, untrusted-root, and revoked origin
// chains plus a clean control — while the origins record each product's
// upstream TLS offer. The result is a per-product report card on the
// Waked et al. axes and the raw acceptance grid.
//
// The run is deterministic: a fixed -seed mints all key material and the
// battery runs on a fixed study-period clock, so two invocations emit
// byte-identical reports (the conformance test and CI smoke step pin
// this against golden fixtures).
//
// Usage:
//
//	go run ./cmd/audit                            # full database, text report
//	go run ./cmd/audit -products 'Bitdefender,Kurupira.NET'
//	go run ./cmd/audit -json                      # cell verdicts as JSON
//	go run ./cmd/audit -push http://reportd:8080  # POST cells to /audit/ingest
//	go run ./cmd/audit -faults fragment,seed=7    # hostile transport too
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"tlsfof/internal/analysis"
	"tlsfof/internal/audit"
	"tlsfof/internal/classify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2016, "battery key-material seed")
	products := fs.String("products", "", "comma-separated product names (default: full classify database)")
	out := fs.String("out", "", "write the text report to this file instead of stdout")
	asJSON := fs.Bool("json", false, "emit cell verdicts as JSON instead of the text report")
	push := fs.String("push", "", "POST cell verdicts to this reportd base URL (/audit/ingest)")
	faults := fs.String("faults", "", "faultnet plan spec for the origin-facing wire (empty = clean)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	entries, err := selectEntries(*products)
	if err != nil {
		return err
	}
	grid, err := audit.Run(audit.Config{Entries: entries, Seed: *seed, FaultSpec: *faults})
	if err != nil {
		return err
	}

	if *push != "" {
		var body bytes.Buffer
		if err := grid.EncodeJSON(&body); err != nil {
			return err
		}
		url := strings.TrimSuffix(*push, "/") + "/audit/ingest"
		resp, err := http.Post(url, "application/json", &body)
		if err != nil {
			return fmt.Errorf("push: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("push: %s returned %s", url, resp.Status)
		}
		fmt.Fprintf(os.Stderr, "audit: pushed %d cells to %s\n", grid.Len(), url)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		stdout = f
	}
	if *asJSON {
		return grid.EncodeJSON(stdout)
	}
	return analysis.AuditReport(stdout, grid.Cells())
}

// selectEntries resolves the -products flag against the classify
// database; empty means every known product.
func selectEntries(products string) ([]audit.Entry, error) {
	if products == "" {
		return audit.EntriesFromProducts(classify.KnownProducts), nil
	}
	var picked []classify.Product
	for _, name := range strings.Split(products, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p := classify.ProductByName(name)
		if p == nil {
			return nil, fmt.Errorf("unknown product %q", name)
		}
		picked = append(picked, *p)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-products selected nothing")
	}
	return audit.EntriesFromProducts(picked), nil
}
