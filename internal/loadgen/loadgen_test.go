package loadgen

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestBucketIndexMonotone pins the index math: indices never decrease
// with the value, and every bucket's upper edge lands back in the same
// bucket (the round-trip that quantile reporting relies on).
func TestBucketIndexMonotone(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 63, 64, 1000,
		1e6, 1e9, 1e12, math.MaxInt64 / 2} {
		idx := bucketIndex(v)
		if idx < last {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, last)
		}
		if idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		if back := bucketIndex(bucketHigh(idx)); back != idx {
			t.Errorf("bucketHigh(%d) = %d maps back to bucket %d", idx, bucketHigh(idx), back)
		}
		last = idx
	}
}

// TestHistogramQuantiles records a known distribution and checks the
// percentiles land within the histogram's ~6% relative error.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations: 1..1000 µs, uniformly.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("max %v", h.Max())
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.90, 900 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{0.999, 999 * time.Microsecond},
		{1.0, 1000 * time.Microsecond},
	} {
		got := h.Quantile(c.q)
		// Upper-edge reporting: got must be >= the true quantile and
		// within one bucket width (6.25%) above it.
		if got < c.want || float64(got) > float64(c.want)*1.07 {
			t.Errorf("p%g = %v, want within [%v, %v]", 100*c.q, got, c.want, time.Duration(float64(c.want)*1.07))
		}
	}

	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

// TestHistogramQuantileEdges pins the defined values at the
// distribution's edges: an empty histogram answers 0 for every
// quantile, and a single-sample histogram answers that sample exactly
// (the bucket's upper edge clamps to the recorded max) — including at
// q=0, q=1, and out-of-range q, which clamp rather than misindex.
func TestHistogramQuantileEdges(t *testing.T) {
	single := func(d time.Duration) *Histogram {
		var h Histogram
		h.Record(d)
		return &h
	}
	for _, tc := range []struct {
		name string
		h    *Histogram
		q    float64
		want time.Duration
	}{
		{"empty q0", &Histogram{}, 0, 0},
		{"empty q0.5", &Histogram{}, 0.5, 0},
		{"empty q1", &Histogram{}, 1, 0},
		{"empty q>1", &Histogram{}, 2, 0},
		{"single q0", single(time.Millisecond), 0, time.Millisecond},
		{"single q0.5", single(time.Millisecond), 0.5, time.Millisecond},
		{"single q0.999", single(time.Millisecond), 0.999, time.Millisecond},
		{"single q1", single(time.Millisecond), 1, time.Millisecond},
		{"single q<0", single(time.Millisecond), -1, time.Millisecond},
		{"single q>1", single(time.Millisecond), 2, time.Millisecond},
		{"single zero-value sample", single(0), 1, 0},
		{"single negative clamps to 0", single(-time.Second), 1, 0},
	} {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%g) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestHistogramMergeDisjoint merges histograms covering disjoint value
// ranges and checks the combined quantiles pick from the correct half:
// the low histogram owns everything up to its share of the mass, the
// high one owns the tail, and max is the global max regardless of merge
// direction.
func TestHistogramMergeDisjoint(t *testing.T) {
	fill := func(lo, hi int) *Histogram {
		var h Histogram
		for i := lo; i <= hi; i++ {
			h.Record(time.Duration(i) * time.Microsecond)
		}
		return &h
	}
	for _, tc := range []struct {
		name     string
		dst, src *Histogram
	}{
		// 100 low samples (1..100 µs) + 100 high samples (10..11 ms):
		// two decades apart, so no bucket overlaps.
		{"low into high", fill(10000, 10099), fill(1, 100)},
		{"high into low", fill(1, 100), fill(10000, 10099)},
	} {
		tc.dst.Merge(tc.src)
		if got, want := tc.dst.Count(), uint64(200); got != want {
			t.Fatalf("%s: merged count = %d, want %d", tc.name, got, want)
		}
		if got, want := tc.dst.Max(), 10099*time.Microsecond; got != want {
			t.Errorf("%s: merged max = %v, want %v", tc.name, got, want)
		}
		// q=0.25 is the 50th of the 100 low observations: must come from
		// the low range, not be dragged up by the high half.
		if got := tc.dst.Quantile(0.25); got < 50*time.Microsecond || got > 54*time.Microsecond {
			t.Errorf("%s: p25 = %v, want ~50µs (low half)", tc.name, got)
		}
		// q=0.75 is the 50th of the high observations.
		if got := tc.dst.Quantile(0.75); got < 10049*time.Microsecond || got > 10750*time.Microsecond {
			t.Errorf("%s: p75 = %v, want ~10.05ms (high half)", tc.name, got)
		}
		// The crossover: q=0.5 is still the last low observation.
		if got := tc.dst.Quantile(0.5); got < 100*time.Microsecond || got > 107*time.Microsecond {
			t.Errorf("%s: p50 = %v, want ~100µs (last low observation)", tc.name, got)
		}
	}
}

// TestHistogramMerge pins that merging equals recording into one.
func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for i := 1; i <= 100; i++ {
		d := time.Duration(i*i) * time.Microsecond
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Max() != whole.Max() {
		t.Fatalf("merged count/max %d/%v, want %d/%v", a.Count(), a.Max(), whole.Count(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("p%g diverges after merge: %v vs %v", 100*q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

// TestRunAgainstServer drives a short closed loop against a local
// server and checks the accounting: every worker contributes and
// errors are zero.
func TestRunAgainstServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Options{
		URL: srv.URL, Conns: 4, Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if res.Errors != 0 {
		t.Errorf("%d errors against a healthy server", res.Errors)
	}
	if res.Hist.Count() != res.Requests {
		t.Errorf("histogram count %d != requests %d", res.Hist.Count(), res.Requests)
	}
	if res.RPS() <= 0 || res.Hist.Quantile(0.5) <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}

	// Error accounting: a 500-only server yields Requests == Errors.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	res, err = Run(context.Background(), Options{URL: bad.URL, Conns: 2, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != res.Requests {
		t.Errorf("bad server: %d errors of %d requests, want all", res.Errors, res.Requests)
	}

	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Error("missing URL not rejected")
	}
}

// TestRunHonoursCancel pins that an early cancel stops the loop well
// before the configured duration.
func TestRunHonoursCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Options{URL: srv.URL, Conns: 2, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancel took %v to stop the loop", took)
	}
	if res.Requests == 0 {
		t.Error("no requests before cancel")
	}
}
