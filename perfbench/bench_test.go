package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppep/internal/experiments"
	"ppep/internal/fleet"
	"ppep/internal/units"
)

// TestMetricLists keeps BENCHMARK.json and the metric tables in step.
func TestMetricLists(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, table map[string]string, list []struct{ Name, Unit string }) {
		if len(list) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d, the benchmark reports %d", what, len(list), len(table))
		}
		for _, m := range list {
			if u, ok := table[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark has [%s] (present %v)", what, m.Name, m.Unit, u, ok)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "p", Start: 0, End: 100, Parent: -1},
		{Name: "c", Start: 10, End: 40, Parent: 0},
		{Name: "c", Start: 30, End: 50, Parent: 0},
		{Name: "c", Start: 70, End: 80, Parent: 0},
	}
	st := tr.stats()
	// Durations are in ns and reported in µs.
	if got := st["p"].self[0] * 1000; math.Abs(got-50) > 1e-9 {
		t.Errorf("parent self time = %vns, want 50ns", got)
	}
	if got := st["p"].total[0] * 1000; math.Abs(got-100) > 1e-9 {
		t.Errorf("parent total = %vns, want 100ns", got)
	}
}

// newRun returns an untraced run of the given length writing under a
// test directory.
func newRun(t *testing.T, seed int64, d time.Duration) *run {
	r := &run{seed: seed, seconds: d, nproc: 2, dir: t.TempDir(), metrics: map[string]metric{}, steal: startSteal()}
	return r
}

// TestWorkloadsPassOnSeeds runs every workload briefly on three seeds,
// one of them never used while the benchmark was written, and expects
// every check to pass and every end-to-end metric to be positive.
func TestWorkloadsPassOnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, name := range sortedKeys(workloads) {
		for _, seed := range []int64{3, 17, 90210} {
			r := newRun(t, seed, 500*time.Millisecond)
			if err := workloads[name](r); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s seed %d: %d of %d operations failed: %v", name, seed, r.failed, r.attempted, r.notes)
			}
			for m := range endToEnd {
				if m == "max_rss_mb" {
					continue // set by main
				}
				if v := r.metrics[m].Value; !(v > 0) {
					t.Errorf("%s seed %d: %s = %v", name, seed, m, v)
				}
			}
		}
	}
}

// TestFleetChecksCatchCorruption tampers with real fleet output and
// expects each check to report it.
func TestFleetChecksCatchCorruption(t *testing.T) {
	models, err := fleet.SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 4
	eng, err := fleet.New(fleetConfig(5, models, nodes, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng.AdvanceN(2)
	s := eng.Snapshot()
	if err := checkSnapshot(s, 2, nodes); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}

	tamper := func(f func(*fleet.Snapshot)) *fleet.Snapshot {
		c := *s
		c.Nodes = append([]fleet.NodeStat(nil), s.Nodes...)
		f(&c)
		return &c
	}
	for name, bad := range map[string]*fleet.Snapshot{
		"total":     tamper(func(c *fleet.Snapshot) { c.TotalTrueW = math.Nextafter(c.TotalTrueW, 0) }),
		"nan watts": tamper(func(c *fleet.Snapshot) { c.Nodes[1].PredChipW[0] = units.Watts(math.NaN()) }),
		"seq":       tamper(func(c *fleet.Snapshot) { c.Seq++ }),
		"analyze":   tamper(func(c *fleet.Snapshot) { c.Nodes[2].AnalyzeErrs = 1 }),
	} {
		if checkSnapshot(bad, 2, nodes) == nil {
			t.Errorf("%s: tampered snapshot accepted", name)
		}
	}

	ref, err := fleet.New(fleetConfig(5, models, 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ref.AdvanceN(2)
	got := []uint64{s.Nodes[0].Fingerprint, s.Nodes[1].Fingerprint}
	want := []uint64{ref.Fingerprint(0), ref.Fingerprint(1)}
	if err := checkInvariance(got, want); err != nil {
		t.Fatalf("clean fingerprints rejected: %v", err)
	}
	got[1] ^= 1
	if checkInvariance(got, want) == nil {
		t.Error("flipped fingerprint accepted")
	}
}

// TestServeChecksCatchCorruption fetches real responses and expects
// tampered bodies, statuses and sequence numbers to be reported.
func TestServeChecksCatchCorruption(t *testing.T) {
	models, err := fleet.SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	dmn, srv, err := buildStack(5, models)
	if err != nil {
		t.Fatal(err)
	}
	if err := dmn.RunIntervals(2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := dial(ts.Listener.Addr().String(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	nVF := len(models.Table)
	get := func(q request) (int, []byte) {
		c.req = append(q.appendPath([]byte("GET ")), " HTTP/1.1\r\nHost: t\r\n\r\n"...)
		if _, err := c.nc.Write(c.req); err != nil {
			t.Fatal(err)
		}
		status, err := readResponse(c.br, &c.body)
		if err != nil {
			t.Fatal(err)
		}
		return status, bytes.Clone(c.body.Bytes())
	}
	var d decoded
	for _, q := range []request{{kind: kindPredict, vf: 3}, {kind: kindBatch}, {kind: kindMetrics}} {
		status, body := get(q)
		var seq uint64
		if err := d.checkResponse(q, status, body, nVF, &seq); err != nil {
			t.Fatalf("%s: clean response rejected: %v", kindPaths[q.kind], err)
		}
	}
	if status, _ := get(request{kind: kindPredict, vf: 9}); status != 400 {
		t.Errorf("/predict?vf=9: status %d, want 400", status)
	}

	q := request{kind: kindPredict, vf: 3}
	status, body := get(q)
	bad := map[string][]byte{
		"truncated":  body[:len(body)/2],
		"wrong vf":   bytes.Replace(body, []byte(`"vf": 3`), []byte(`"vf": 4`), 1),
		"negative W": bytes.Replace(body, []byte(`"chip_w": `), []byte(`"chip_w": -`), 1),
		"zero cpi":   bytes.Replace(body, []byte(`"cpi": `), []byte(`"cpi": 0, "x": `), 1),
	}
	for name, b := range bad {
		if bytes.Equal(b, body) {
			t.Fatalf("%s: tampering did not change the body", name)
		}
		var seq uint64
		if d.checkResponse(q, status, b, nVF, &seq) == nil {
			t.Errorf("%s: tampered body accepted", name)
		}
	}
	seq := uint64(1 << 40)
	if d.checkResponse(q, status, body, nVF, &seq) == nil {
		t.Error("sequence going back accepted")
	}
	var zero uint64
	if d.checkResponse(q, 500, body, nVF, &zero) == nil {
		t.Error("non-200 status accepted")
	}
	_, batch := get(request{kind: kindBatch})
	short := strings.Replace(string(batch), `"vf": 5`, `"vf": 6`, 1)
	if d.checkResponse(request{kind: kindBatch}, 200, []byte(short), nVF, &zero) == nil {
		t.Error("batch with a wrong row accepted")
	}
}

// TestCampaignWarmCatchesDeletedEntry deletes one cache entry between
// the cold and the warm pass and expects the warm check to fail, while
// an untouched replay passes.
func TestCampaignWarmCatchesDeletedEntry(t *testing.T) {
	opts := experiments.Options{Scale: 0.01, MaxRunsPerSuite: campaignMaxRuns, Workers: 2, CacheDir: t.TempDir()}
	c, err := experiments.NewFXCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	cst, _ := c.CacheStats()
	if err := checkCold(cst); err != nil {
		t.Fatal(err)
	}
	want, err := saveModels(c.Models)
	if err != nil {
		t.Fatal(err)
	}
	replay := func() error {
		w, err := experiments.NewFXCampaign(opts)
		if err != nil {
			t.Fatal(err)
		}
		wst, _ := w.CacheStats()
		got, err := saveModels(w.Models)
		if err != nil {
			t.Fatal(err)
		}
		return checkWarm(cst, wst, want, got)
	}
	if err := replay(); err != nil {
		t.Fatalf("clean replay rejected: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(opts.CacheDir, "*.pptc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache entries (%v)", err)
	}
	if err := os.Remove(files[len(files)/2]); err != nil {
		t.Fatal(err)
	}
	if replay() == nil {
		t.Error("replay with a deleted entry accepted")
	}
	if checkWarm(cst, cst, want, append([]byte("x"), want...)) == nil {
		t.Error("differing model bytes accepted")
	}
}

// TestReadResponse parses both framings the server uses and rejects
// malformed responses.
func TestReadResponse(t *testing.T) {
	for _, tc := range []struct {
		raw, body string
		status    int
	}{
		{"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: x\r\n\r\nhello", "hello", 200},
		{"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n", "", 400},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\na\r\n0123456789\r\n0\r\n\r\n", "abc0123456789", 200},
	} {
		var body bytes.Buffer
		status, err := readResponse(bufio.NewReader(strings.NewReader(tc.raw)), &body)
		if err != nil || status != tc.status || body.String() != tc.body {
			t.Errorf("%q: got %d %q %v, want %d %q", tc.raw, status, body.String(), err, tc.status, tc.body)
		}
	}
	for _, raw := range []string{
		"HTTP/1.0 200 OK\r\n\r\n",
		"HTTP/1.1 2x0 OK\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
	} {
		var body bytes.Buffer
		if _, err := readResponse(bufio.NewReader(strings.NewReader(raw)), &body); err == nil {
			t.Errorf("%q: accepted", raw)
		}
	}
}

// TestChargedLatency checks that an open-loop request is charged the
// time it waited behind the previous response, but not the
// generator's own lateness.
func TestChargedLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	for _, tc := range []struct {
		due, sent, read, prevRead int
		want                      int
		queued                    bool
	}{
		{due: 100, sent: 100, read: 150, prevRead: 50, want: 50},                 // idle connection, on time
		{due: 100, sent: 400, read: 450, prevRead: 50, want: 50},                 // late wake-up: not charged
		{due: 100, sent: 320, read: 370, prevRead: 300, want: 250, queued: true}, // waited 200 µs behind the previous response
	} {
		got, queued := charged(at(tc.due), at(tc.sent), at(tc.read), at(tc.prevRead))
		if got != time.Duration(tc.want)*time.Microsecond || queued != tc.queued {
			t.Errorf("%+v: charged %v, queued %v", tc, got, queued)
		}
	}
}
