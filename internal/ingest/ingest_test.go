package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/stats"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// synthetic builds n measurements over a handful of hosts, countries, and
// issuers, with roughly every 8th proxied — shaped like the study stream
// without touching any crypto.
func synthetic(n int, seed uint64) []core.Measurement {
	r := stats.NewRNG(seed)
	hosts := []string{"www.facebook.com", "tlsresearch.byu.edu", "mail.google.com", "example.org", "static.ak.fbcdn.net"}
	countries := []string{"US", "DE", "RO", "BR", "KR", "??"}
	issuers := []string{"Bitdefender", "Kurupira.NET", "Sendori, Inc", "Null", "DigiCert Inc"}
	epoch := time.Date(2014, time.October, 8, 0, 0, 0, 0, time.UTC)
	ms := make([]core.Measurement, n)
	for i := range ms {
		m := core.Measurement{
			Time:     epoch.Add(time.Duration(i) * time.Second),
			ClientIP: uint32(r.Intn(1 << 24)),
			Country:  countries[r.Intn(len(countries))],
			Host:     hosts[r.Intn(len(hosts))],
			Campaign: "synthetic",
		}
		if r.Intn(8) == 0 {
			m.Obs = core.Observation{
				Proxied:   true,
				IssuerOrg: issuers[r.Intn(len(issuers))],
				KeyBits:   []int{512, 1024, 2048, 2432}[r.Intn(4)],
				MD5Signed: r.Intn(4) == 0,
			}
			m.Obs.WeakKey = m.Obs.KeyBits < 2048
		}
		ms[i] = m
	}
	return ms
}

// batchSinkFunc adapts a function to BatchSink.
type batchSinkFunc func([]core.Measurement)

func (f batchSinkFunc) IngestBatch(batch []core.Measurement) { f(batch) }

func TestBatcherBatchesAndFlushes(t *testing.T) {
	var got [][]core.Measurement
	sink := batchSinkFunc(func(b []core.Measurement) { got = append(got, b) })
	b := NewBatcher(sink, 4)
	for _, m := range synthetic(10, 1) {
		b.Ingest(m)
	}
	if len(got) != 2 {
		t.Fatalf("before flush: %d batches, want 2", len(got))
	}
	b.Flush()
	if len(got) != 3 {
		t.Fatalf("after flush: %d batches, want 3", len(got))
	}
	total := 0
	for i, batch := range got {
		total += len(batch)
		if i < 2 && len(batch) != 4 {
			t.Fatalf("batch %d has %d measurements, want 4", i, len(batch))
		}
	}
	if total != 10 {
		t.Fatalf("total %d measurements, want 10", total)
	}
	b.Flush() // empty flush is a no-op
	if len(got) != 3 {
		t.Fatalf("empty flush forwarded a batch")
	}
}

// TestPipelineMatchesSequential is the core pipeline property: any shard
// count and either ingest face produces a merged DB whose aggregates equal
// a plain sequential store.
func TestPipelineMatchesSequential(t *testing.T) {
	ms := synthetic(20000, 3)
	want := store.New(0)
	for _, m := range ms {
		want.Ingest(m)
	}

	for _, shards := range []int{1, 2, 4, 7} {
		p := NewPipeline(Config{Shards: shards, BatchSize: 64})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				b := NewBatcher(p, 64)
				for i := w; i < len(ms); i += 4 {
					b.Ingest(ms[i])
				}
				b.Flush()
			}(w)
		}
		wg.Wait()
		p.Close()
		got := p.Merge(0)

		name := fmt.Sprintf("shards=%d", shards)
		if got.Totals() != want.Totals() {
			t.Fatalf("%s: totals %+v, want %+v", name, got.Totals(), want.Totals())
		}
		if !bytes.Equal(got.AppendSnapshot(nil), want.AppendSnapshot(nil)) {
			t.Errorf("%s: merged store's canonical image differs from the sequential store's", name)
		}
		if got.Negligence() != want.Negligence() {
			t.Errorf("%s: negligence %+v, want %+v", name, got.Negligence(), want.Negligence())
		}
		gi, wi := got.IssuerOrgTop(0), want.IssuerOrgTop(0)
		if len(gi) != len(wi) {
			t.Fatalf("%s: issuer rows %d, want %d", name, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] {
				t.Errorf("%s: issuer row %d = %+v, want %+v", name, i, gi[i], wi[i])
			}
		}
		st := p.Stats()
		if st.Ingested != uint64(len(ms)) {
			t.Errorf("%s: ingested %d, want %d", name, st.Ingested, len(ms))
		}
		if len(got.ProxiedRecords()) != len(want.ProxiedRecords()) {
			t.Errorf("%s: retained %d records, want %d", name, len(got.ProxiedRecords()), len(want.ProxiedRecords()))
		}
	}
}

// TestPipelineMergeDeterministic: two runs with different interleavings
// produce byte-identical exports after Merge canonicalization.
func TestPipelineMergeDeterministic(t *testing.T) {
	ms := synthetic(8000, 4)
	render := func(producers int) string {
		p := NewPipeline(Config{Shards: 4, BatchSize: 32})
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ms); i += producers {
					p.Ingest(ms[i])
				}
			}(w)
		}
		wg.Wait()
		p.Close()
		var buf bytes.Buffer
		if err := p.Merge(0).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(1), render(5)
	if a != b {
		t.Fatalf("merged CSV differs between 1-producer and 5-producer runs")
	}
}

// TestDrainMakesSnapshotsComplete: after Drain, a Merge must see every
// measurement ingested so far — the /stats snapshot path in reportd.
func TestDrainMakesSnapshotsComplete(t *testing.T) {
	p := NewPipeline(Config{Shards: 4, BatchSize: 512})
	ms := synthetic(1000, 8)
	for _, m := range ms {
		p.Ingest(m) // BatchSize 512 > stripe size, so much stays pending
	}
	p.Drain()
	if got := p.Merge(0).Totals().Tested; got != len(ms) {
		t.Fatalf("after Drain merge sees %d, want %d", got, len(ms))
	}
	p.Close()
}

// TestPipelineCountsWeightedRows: a delivered row of count 5 is five
// measurements to the pipeline's Enqueued while it is pending and to
// Ingested once committed, as it is to the merged store.
func TestPipelineCountsWeightedRows(t *testing.T) {
	p := NewPipeline(Config{Shards: 2, BatchSize: 512})
	defer p.Close()
	m := synthetic(1, 3)[0]
	m.Obs = core.Observation{} // a weighted row is a clean one
	var b core.Batch
	b.AddN(&m, 5)
	if err := p.Deliver(&b); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Enqueued != 5 {
		t.Fatalf("stats %+v, want 5 enqueued", st)
	}
	p.Drain()
	if st := p.Stats(); st.Enqueued != 5 || st.Ingested != 5 {
		t.Fatalf("stats after Drain %+v, want 5 enqueued and ingested", st)
	}
	if got := p.Merge(0).Totals().Tested; got != 5 {
		t.Fatalf("merged store tested %d, want 5", got)
	}
}

func TestWireRoundTrip(t *testing.T) {
	reports := []Report{
		{Host: "tlsresearch.byu.edu", ChainDER: [][]byte{{0x30, 0x82, 0x01}, {0x30, 0x82, 0x02, 0x99}}},
		{Host: "www.facebook.com", ChainDER: [][]byte{bytes.Repeat([]byte{0xAB}, 4096)}},
		{Host: "a", ChainDER: [][]byte{{1}}},
		// Same host and leaf, so the encoder's repeat lookup hashes all
		// four alike: only a whole-chain match may make a reference.
		{Host: "a", ChainDER: [][]byte{{1}, {2}}},
		{Host: "a", ChainDER: [][]byte{{1}, {3}}},
		{Host: "a", ChainDER: [][]byte{{1}}},
	}
	stream, err := AppendReports(nil, reports)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewArenaDecoder(bytes.NewReader(stream), nil)
	for i, want := range reports {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if got.Host != want.Host {
			t.Fatalf("report %d host %q, want %q", i, got.Host, want.Host)
		}
		if len(got.ChainDER) != len(want.ChainDER) {
			t.Fatalf("report %d chain length %d, want %d", i, len(got.ChainDER), len(want.ChainDER))
		}
		for j := range want.ChainDER {
			if !bytes.Equal(got.ChainDER[j], want.ChainDER[j]) {
				t.Fatalf("report %d cert %d differs", i, j)
			}
		}
	}
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestWireRejects(t *testing.T) {
	// Encoder-side limits.
	for _, r := range []Report{
		{Host: "", ChainDER: [][]byte{{1}}},
		{Host: "h", ChainDER: nil},
		{Host: "h", ChainDER: [][]byte{bytes.Repeat([]byte{1}, MaxWireCertLen+1)}},
	} {
		if _, err := AppendReports(nil, []Report{r}); err == nil {
			t.Errorf("host %q with %d certs accepted", r.Host, len(r.ChainDER))
		}
	}

	// Decoder-side: bad magic, and the retired TFW2 (one frame, "a", a
	// one-byte cert), refused by name.
	if _, err := NewArenaDecoder(bytes.NewReader([]byte("NOPE....")), nil).Next(); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewArenaDecoder(bytes.NewReader([]byte("TFW2\x00\x01a\x01\x01\x30")), nil).Next(); err == nil || !strings.Contains(err.Error(), `"TFW2"`) {
		t.Errorf("TFW2 stream: got %v, want a refusal naming TFW2", err)
	}
	// Truncation mid-frame is ErrUnexpectedEOF, not a clean EOF.
	stream, err := AppendReports(nil, []Report{{Host: "host", ChainDER: [][]byte{bytes.Repeat([]byte{7}, 100)}}})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewArenaDecoder(bytes.NewReader(stream[:len(stream)-5]), nil)
	if _, err := dec.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated stream: got %v, want io.ErrUnexpectedEOF", err)
	}
	// A hostile length prefix must be rejected before allocation.
	hostile := append(append([]byte{}, wireMagic[:]...), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	if _, err := NewArenaDecoder(bytes.NewReader(hostile), nil).Next(); err == nil {
		t.Error("hostile host length accepted")
	}
}

// TestMountMetrics: the registry gauges read the pipeline's totals.
func TestMountMetrics(t *testing.T) {
	p := NewPipeline(Config{Shards: 3})
	defer p.Close()
	reg := telemetry.NewRegistry()
	p.MountMetrics(reg)
	for _, m := range synthetic(100, 9) {
		p.Ingest(m)
	}
	p.Drain()
	got := map[string]float64{}
	for _, m := range reg.Snapshot() {
		got[m.Name] = m.Value
	}
	want := map[string]float64{"ingest_enqueued_total": 100, "ingest_ingested_total": 100, "ingest_wal_errors_total": 0}
	if !maps.Equal(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
}
