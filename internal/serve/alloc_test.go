package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"ppep/internal/daemon"
)

// nullResponseWriter is a ResponseWriter that discards the body and
// reuses one header map, so AllocsPerRun sees only the handler's own
// allocations — httptest.ResponseRecorder clones the header map per
// WriteHeader and grows a body buffer, which would drown the signal.
type nullResponseWriter struct{ h http.Header }

func (w nullResponseWriter) Header() http.Header         { return w.h }
func (w nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nullResponseWriter) WriteHeader(int)             {}

// TestPredictAllocs pins the read path's allocation budget: a predict
// request — through the full request mux, not just the handler — is a
// pointer load plus a write of pre-rendered bytes. The only alloc left
// is Header().Set's []string value; the ceiling of 2 leaves exactly one
// slot of headroom. If this fails, something on the hot path started
// rendering, parsing, or locking per request — fix that rather than
// raising the ceiling.
func TestPredictAllocs(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	h := srv.Handler()
	if err := d.RunIntervals(2); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		req  *http.Request
	}{
		{"predict", httptest.NewRequest(http.MethodGet, "/predict?vf=3", nil)},
		{"batch", httptest.NewRequest(http.MethodGet, "/predict/batch", nil)},
	}
	w := nullResponseWriter{h: make(http.Header)}
	const budget = 2.0
	for _, c := range cases {
		if got := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, c.req) }); got > budget {
			t.Errorf("%s: %.1f allocs/request, budget %.0f", c.name, got, budget)
		}
	}
}

// TestObserveAllocs pins the per-interval render cost on the sampling
// goroutine: one snapshot holding the per-VF /predict bodies and the
// /predict/batch body. TestServeIntervalAllocs in the daemon package
// stands a no-op in for Observe, so this is the pin that sees the
// renders. The race detector makes sync.Pool drop items at random, so
// the JSON encoder's allocation count is not stable there.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	if err := d.RunIntervals(2); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		srv.pub.Store(nil) // defeat the same-table early return
		srv.Observe(daemon.Record{})
	})
	const ceiling = 19
	if n > ceiling {
		t.Errorf("Observe allocates %.1f times, want <= %d", n, ceiling)
	}
}
