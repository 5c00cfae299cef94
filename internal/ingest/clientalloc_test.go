package ingest

// Allocation and recycling tests for the upload client: the flush path
// must recycle its batch slices instead of re-making one per flush
// (ISSUE 3 satellite), the steady-state enqueue must not allocate, and
// the append-style wire encoder must be zero-alloc into a warm buffer.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tlsfof/internal/raceflag"
)

// cannedBatchServer answers every post with a fixed all-accepted
// BatchResult without decoding the body — the cheapest well-formed peer
// for client-side measurements.
func cannedBatchServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"accepted":1,"rejected":0}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func testReport(host string) Report {
	return Report{Host: host, ChainDER: [][]byte{{1, 2, 3, 4}, {5, 6}}}
}

// TestClientRecyclesBatchSlices pins what a flush hands the next fill,
// whether or not sync.Pool returns the slice just recycled (it need not:
// a Get only sees the previous Put while the goroutine stays on one P,
// so asserting array identity is a scheduling bet): the in-fill slice is
// empty, already has its working capacity, and carries no posted report
// anywhere in that capacity. That no flush re-makes a slice in steady
// state is TestClientEnqueueSteadyStateAllocs' pin.
func TestClientRecyclesBatchSlices(t *testing.T) {
	srv := cannedBatchServer(t)
	c := NewClient(srv.URL)
	c.BatchSize = 4

	const cycles = 8
	for i := 0; i < cycles; i++ {
		for j := 0; j < c.BatchSize; j++ {
			if err := c.Report(testReport("recycle.example")); err != nil {
				t.Fatal(err)
			}
		}
		// One flush just happened; inspect the slice now in fill.
		c.mu.Lock()
		if len(c.buf) != 0 || cap(c.buf) < c.BatchSize {
			t.Fatalf("cycle %d: in-fill batch has len %d cap %d, want empty with capacity >= %d", i, len(c.buf), cap(c.buf), c.BatchSize)
		}
		for k, r := range c.buf[:cap(c.buf)] {
			if r.Host != "" || r.ChainDER != nil {
				t.Fatalf("cycle %d: in-fill slot %d still references a posted report: %+v", i, k, r)
			}
		}
		c.mu.Unlock()
	}
	st := c.Stats()
	if st.Reported != cycles*4 || st.Posts != cycles || st.PostErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRecycledBatchesAreCleared pins the memory-retention contract on
// the function that enforces it: recycleBatch clears the whole posted
// slice before it can reach the pool, so recycled capacity never keeps a
// reference to a posted report chain.
func TestRecycledBatchesAreCleared(t *testing.T) {
	c := NewClient("http://unused.invalid/ingest/batch")
	batch := make([]Report, 0, 4)
	batch = append(batch, testReport("clear.example"), testReport("clear.example"))
	c.recycleBatch(batch)
	for i, r := range batch[:cap(batch)] {
		if r.Host != "" || r.ChainDER != nil {
			t.Fatalf("recycled slot %d still references a posted report: %+v", i, r)
		}
	}
	// Recycled or fresh, the next fill starts empty with capacity.
	if got := c.takeBatchSlice(); len(got) != 0 || cap(got) == 0 {
		t.Fatalf("takeBatchSlice returned len %d cap %d", len(got), cap(got))
	}
}

// TestClientEnqueueSteadyStateAllocs pins the enqueue path at zero
// allocations once the batch slice has its working capacity.
func TestClientEnqueueSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := NewClient("http://unused.invalid/ingest/batch")
	c.BatchSize = 1 << 20 // never auto-flush during the measurement
	r := testReport("alloc.example")
	c.Report(r) // grow once
	// Pre-grow to the measured count so append never reallocates.
	const runs = 512
	c.mu.Lock()
	need := len(c.buf) + runs + 8
	grown := make([]Report, len(c.buf), need)
	copy(grown, c.buf)
	c.buf = grown
	c.mu.Unlock()
	allocs := testing.AllocsPerRun(runs, func() {
		if err := c.Report(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state enqueue costs %.1f allocs/op, want 0", allocs)
	}
}

// TestAppendReportsSteadyStateAllocs pins the encode path at zero
// allocations into a warm buffer.
func TestAppendReportsSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	batch := make([]Report, 64)
	for i := range batch {
		batch[i] = testReport("append.example")
	}
	warm, err := AppendReports(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendReports(warm[:0], batch)
		if err != nil {
			t.Fatal(err)
		}
		warm = out[:0]
	})
	if allocs != 0 {
		t.Fatalf("warm AppendReports costs %.1f allocs/op, want 0", allocs)
	}
}

// TestPostReportsSteadyStateAllocs pins the caller-owned upload path to
// the pooled encode buffer: a warm PostReports grows no wire buffer. The
// pin reads bytes, not objects — the HTTP round trip allocates a few KiB of
// its own either way, while re-growing the buffer from nil costs several
// times the batch's wire size on every call.
func TestPostReportsSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"accepted":256,"rejected":0}`)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	batch := make([]Report, 256)
	for i := range batch {
		batch[i] = Report{Host: "post.example", ChainDER: [][]byte{make([]byte, 1024), make([]byte, 1024)}}
	}
	wire, err := AppendReports(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		if err := c.PostReports(batch); err != nil {
			t.Fatal(err)
		}
	}
	post() // grow the pooled buffer, open the keep-alive connection
	const posts = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < posts; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perPost := (after.TotalAlloc - before.TotalAlloc) / posts
	if perPost > uint64(len(wire))/4 {
		t.Fatalf("warm PostReports allocates %d B per %d-B batch; the encode buffer is not being reused", perPost, len(wire))
	}
	if batch[0].Host != "post.example" || len(batch[255].ChainDER) != 2 {
		t.Fatal("PostReports modified the caller's batch")
	}
}

// TestAppendReportsMatchesEncoder pins the two encoding paths to the same
// bytes.
func TestAppendReportsMatchesEncoder(t *testing.T) {
	reports := []Report{
		testReport("a.example"),
		{Host: "b.example", ChainDER: [][]byte{make([]byte, 300)}},
	}
	one, err := EncodeReports(reports)
	if err != nil {
		t.Fatal(err)
	}
	two, err := AppendReports([]byte("pre"), reports)
	if err != nil {
		t.Fatal(err)
	}
	if string(two[:3]) != "pre" || string(two[3:]) != string(one) {
		t.Fatal("AppendReports diverges from EncodeReports")
	}
	// Decoder round trip.
	dec := NewDecoder(bytes.NewReader(one))
	for i := 0; ; i++ {
		rep, err := dec.Next()
		if err != nil {
			break
		}
		if rep.Host != reports[i].Host || len(rep.ChainDER) != len(reports[i].ChainDER) {
			t.Fatalf("report %d corrupted in round trip", i)
		}
	}
}
