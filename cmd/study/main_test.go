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

func TestRunOutputIndependentOfShardsAndResume(t *testing.T) {
	dir := t.TempDir()
	runStudy := func(name string, wantCode int, extra ...string) (stdout, csv []byte) {
		t.Helper()
		path := filepath.Join(dir, name+".csv")
		var out, errb bytes.Buffer
		if code := run(studyArgs(path, extra...), &out, &errb); code != wantCode {
			t.Fatalf("%s: exit %d, want %d\n%s", name, code, wantCode, errb.Bytes())
		}
		csv, _ = os.ReadFile(path) // absent after an abort
		return out.Bytes(), csv
	}

	wantOut, wantCSV := runStudy("seq", 0, "-shards=1")
	if len(wantOut) == 0 || len(wantCSV) == 0 {
		t.Fatalf("degenerate run: %d bytes of tables, %d of CSV", len(wantOut), len(wantCSV))
	}
	check := func(name string, out, csv []byte) {
		t.Helper()
		if !bytes.Equal(out, wantOut) {
			t.Errorf("%s: stdout differs from -shards=1", name)
		}
		if !bytes.Equal(csv, wantCSV) {
			t.Errorf("%s: CSV differs from -shards=1", name)
		}
	}

	out, csv := runStudy("concurrent", 0, "-shards=4")
	check("-shards=4", out, csv)

	data := "-data-dir=" + filepath.Join(dir, "wal")
	out, csv = runStudy("aborted", 3, "-shards=4", data, "-abort-after=60000")
	if len(out) != 0 || csv != nil {
		t.Errorf("aborted run wrote %d bytes of tables and a %d-byte CSV", len(out), len(csv))
	}
	out, csv = runStudy("resumed", 0, "-shards=4", data)
	check("resumed", out, csv)
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
