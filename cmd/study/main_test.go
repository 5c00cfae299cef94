package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// studyArgs is the fixed small run every case below repeats: what it
// prints and exports must depend on nothing else on the command line.
func studyArgs(csv string, extra ...string) []string {
	return append([]string{"-study=second", "-scale=0.01", "-table=all", "-csv=" + csv}, extra...)
}

func TestRunOutputIndependentOfShards(t *testing.T) {
	dir := t.TempDir()
	runStudy := func(name string, extra ...string) (stdout, csv []byte) {
		t.Helper()
		path := filepath.Join(dir, name+".csv")
		var out, errb bytes.Buffer
		if code := run(studyArgs(path, extra...), &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, errb.Bytes())
		}
		csv, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), csv
	}

	wantOut, wantCSV := runStudy("seq", "-shards=1")
	if len(wantOut) == 0 || len(wantCSV) == 0 {
		t.Fatalf("degenerate run: %d bytes of tables, %d of CSV", len(wantOut), len(wantCSV))
	}
	out, csv := runStudy("concurrent", "-shards=4")
	if !bytes.Equal(out, wantOut) {
		t.Error("-shards=4: stdout differs from -shards=1")
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Error("-shards=4: CSV differs from -shards=1")
	}
}

func TestRunRejectsUnknownStudy(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-study=third"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if out.Len() != 0 || !bytes.Contains(errb.Bytes(), []byte(`unknown -study "third"`)) {
		t.Fatalf("stdout %q, stderr %q", out.Bytes(), errb.Bytes())
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "Inf", "-Inf"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-study=first", "-scale=" + scale}, &out, &errb); code != 1 {
			t.Errorf("-scale=%s: exit %d, want 1", scale, code)
			continue
		}
		if out.Len() != 0 || !bytes.Contains(errb.Bytes(), []byte("study: -scale ")) {
			t.Errorf("-scale=%s: stdout %q, stderr %q", scale, out.Bytes(), errb.Bytes())
		}
	}
}
