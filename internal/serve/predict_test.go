package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
)

// TestPredictStatusCodes is the table-driven contract of the predict
// endpoints' status codes, before and after the first interval: client
// errors are 400 regardless of server state (a malformed vf used to
// turn into 404 before the first interval), and only a well-formed
// request for data that does not exist yet is 404.
func TestPredictStatusCodes(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	h := srv.Handler()

	cases := []struct {
		path        string
		pre, post   int
		description string
	}{
		{"/predict?vf=3", http.StatusNotFound, http.StatusOK, "valid state"},
		{"/predict?vf=1", http.StatusNotFound, http.StatusOK, "bottom state"},
		{"/predict?vf=5", http.StatusNotFound, http.StatusOK, "top state"},
		{"/predict", http.StatusBadRequest, http.StatusBadRequest, "missing vf"},
		{"/predict?vf=", http.StatusBadRequest, http.StatusBadRequest, "empty vf"},
		{"/predict?vf=abc", http.StatusBadRequest, http.StatusBadRequest, "non-numeric vf"},
		{"/predict?vf=0", http.StatusBadRequest, http.StatusBadRequest, "below range"},
		{"/predict?vf=6", http.StatusBadRequest, http.StatusBadRequest, "above range"},
		{"/predict?vf=-2", http.StatusBadRequest, http.StatusBadRequest, "negative vf"},
		{"/predict?vf=3&extra=1", http.StatusNotFound, http.StatusOK, "extra params ignored"},
		{"/predict?extra=1&vf=3", http.StatusNotFound, http.StatusOK, "vf after other params"},
		{"/predict/batch", http.StatusNotFound, http.StatusOK, "batch"},
	}
	for _, c := range cases {
		if code, body := get(t, h, c.path); code != c.pre {
			t.Errorf("pre-interval %s (%s) = %d %q, want %d", c.path, c.description, code, body, c.pre)
		}
	}
	if err := d.RunIntervals(2); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if code, body := get(t, h, c.path); code != c.post {
			t.Errorf("post-interval %s (%s) = %d %q, want %d", c.path, c.description, code, body, c.post)
		}
	}
}

// batchGet performs one /predict/batch request with an Accept header.
func batchGet(t *testing.T, h http.Handler, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/predict/batch", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestPredictBatch pins the batch endpoint end to end: the body is the
// published table as JSON, carrying every VF state, and it is the same
// bytes whatever the client's Accept header says — including the media
// type of the retired binary frame, so an old client still gets a 200.
func TestPredictBatch(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	h := srv.Handler()
	if err := d.RunIntervals(3); err != nil {
		t.Fatal(err)
	}

	rr := batchGet(t, h, "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/predict/batch = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type %q", ct)
	}
	var viaJSON core.PredictionTable
	if err := json.Unmarshal(rr.Body.Bytes(), &viaJSON); err != nil {
		t.Fatal(err)
	}
	if viaJSON.Seq != 3 {
		t.Errorf("batch seq %d, want 3", viaJSON.Seq)
	}
	if len(viaJSON.Rows) != len(arch.FX8320VFTable) {
		t.Fatalf("batch rows %d, want %d", len(viaJSON.Rows), len(arch.FX8320VFTable))
	}
	for i, row := range viaJSON.Rows {
		if row.VF != arch.VFState(i+1) {
			t.Errorf("row %d is %v", i, row.VF)
		}
		if row.ChipW <= 0 || row.TotalIPS <= 0 || row.EDP <= 0 {
			t.Errorf("%v: empty row %+v", row.VF, row)
		}
	}
	// Go's JSON float encoding is shortest-round-trip, so the decoded
	// body is bit-identical to the published table.
	if pub := d.Predictions(); pub == nil {
		t.Fatal("no published table after intervals")
	} else if !reflect.DeepEqual(&viaJSON, pub) {
		t.Errorf("batch body diverges from the published table:\njson %+v\npub  %+v", &viaJSON, pub)
	}

	// Unrelated Accept values fall back to the same JSON bytes.
	const vendorType = "application/x-ppep-"
	for _, accept := range []string{"text/html", "application/json", vendorType + "batch", "application/json, " + vendorType + "batch"} {
		got := batchGet(t, h, accept)
		if got.Code != http.StatusOK {
			t.Errorf("Accept %q: status %d", accept, got.Code)
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Accept %q got Content-Type %q", accept, ct)
		}
		if !bytes.Equal(got.Body.Bytes(), rr.Body.Bytes()) {
			t.Errorf("Accept %q got a different body", accept)
		}
	}
}

// TestReportsEdgeCases covers the /reports query-window corners: ?n=0
// is a valid empty window, and a wrapped history ring still serves
// oldest-first with contiguous sequence numbers.
func TestReportsEdgeCases(t *testing.T) {
	const cap = 4
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	h := srv.Handler()

	// ?n=0 with no history at all: an empty array, not an error.
	code, body := get(t, h, "/reports?n=0")
	if code != http.StatusOK {
		t.Fatalf("empty-history /reports?n=0 = %d", code)
	}
	var recs []daemon.Record
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("?n=0 returned %d records", len(recs))
	}

	// Wrap the ring: 2.5× capacity worth of intervals.
	if err := d.RunIntervals(cap*2 + 2); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, h, "/reports")
	recs = nil
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != cap {
		t.Fatalf("wrapped ring served %d records, want %d", len(recs), cap)
	}
	wantFirst := uint64(cap + 3) // 10 intervals, newest 4 retained
	for i, rec := range recs {
		if rec.Seq != wantFirst+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d (oldest-first, contiguous)", i, rec.Seq, wantFirst+uint64(i))
		}
	}

	// ?n=0 on a wrapped ring is still the empty window.
	_, body = get(t, h, "/reports?n=0")
	recs = nil
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("wrapped ?n=0 returned %d records", len(recs))
	}

	// ?n beyond the retained window returns everything retained.
	_, body = get(t, h, "/reports?n=100")
	recs = nil
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != cap {
		t.Errorf("?n=100 returned %d records, want %d", len(recs), cap)
	}
}

// TestServerTimeouts pins the http.Server hardening: every timeout is
// set — a slow client must not be able to pin a connection forever.
func TestServerTimeouts(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 4})
	if err != nil {
		t.Fatal(err)
	}

	hs := New(d, Options{}).httpServer(":0")
	if hs.ReadHeaderTimeout != DefaultReadHeaderTimeout ||
		hs.ReadTimeout != DefaultReadTimeout ||
		hs.WriteTimeout != DefaultWriteTimeout ||
		hs.IdleTimeout != DefaultIdleTimeout {
		t.Errorf("default timeouts not applied: %+v", hs)
	}
}

// TestQueryValue pins the allocation-free query scanner against the
// shapes the predict handlers see.
func TestQueryValue(t *testing.T) {
	cases := []struct {
		raw, key string
		want     string
		found    bool
	}{
		{"vf=3", "vf", "3", true},
		{"vf=", "vf", "", true},
		{"vf", "vf", "", true},
		{"", "vf", "", false},
		{"n=2", "vf", "", false},
		{"a=1&vf=4&b=2", "vf", "4", true},
		{"vff=9", "vf", "", false},
		{"x=vf", "vf", "", false},
		{"vf=1&vf=2", "vf", "1", true},
	}
	for _, c := range cases {
		got, found := queryValue(c.raw, c.key)
		if got != c.want || found != c.found {
			t.Errorf("queryValue(%q, %q) = %q/%v, want %q/%v", c.raw, c.key, got, found, c.want, c.found)
		}
	}
}
