package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunMatchesSmokeFixture runs the command with the CI smoke arguments
// and byte-compares its report with the checked-in fixture.
func TestRunMatchesSmokeFixture(t *testing.T) {
	out := filepath.Join(t.TempDir(), "audit-smoke.txt")
	var stdout bytes.Buffer
	err := run([]string{"-seed", "2016", "-products", "Bitdefender,Kurupira.NET,Fortinet,Sendori Inc", "-out", out}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-out run wrote %d bytes to stdout", stdout.Len())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "audit_smoke.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from testdata/golden/audit_smoke.txt\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRunRejectsUnknownProduct(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-products", "Bitdefender,No Such Proxy"}, &stdout)
	if err == nil || !strings.Contains(err.Error(), `unknown product "No Such Proxy"`) {
		t.Fatalf("got %v, want an unknown-product error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("failed run wrote %d bytes to stdout", stdout.Len())
	}
}
