package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Defaults for zero-valued Options fields.
const (
	DefaultPath     = "/predict/batch"
	DefaultConns    = 8
	DefaultDuration = 2 * time.Second
)

// Options configures one load run.
type Options struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080". Required.
	URL string
	// Path is the endpoint to hammer (DefaultPath if empty).
	Path string
	// Conns is the number of closed-loop workers, each with its own
	// keep-alive connection (DefaultConns if zero).
	Conns int
	// Duration bounds the run (DefaultDuration if zero).
	Duration time.Duration
}

// Result is the outcome of one load run.
type Result struct {
	// Requests counts completed request/response cycles, successful or
	// not; Errors counts the subset that failed (transport error or
	// non-200 status).
	Requests uint64
	Errors   uint64
	// Elapsed is the measured wall time the workers were running.
	Elapsed time.Duration
	// Hist holds every per-request latency, merged across workers.
	Hist Histogram
}

// RPS is the achieved request rate over the measured window.
func (r *Result) RPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// String renders the one-paragraph human summary the CLI prints.
func (r *Result) String() string {
	return fmt.Sprintf(
		"%d requests in %v (%.0f req/s, %d errors)\n"+
			"latency p50=%v p90=%v p99=%v p999=%v max=%v",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.RPS(), r.Errors,
		r.Hist.Quantile(0.50), r.Hist.Quantile(0.90),
		r.Hist.Quantile(0.99), r.Hist.Quantile(0.999), r.Hist.Max())
}

// Run drives a closed loop against opts.URL+opts.Path until the
// duration elapses or ctx is cancelled, whichever is first. Each worker
// measures every request round trip (including reading the body) into
// its own histogram; Run merges them. Individual request failures are
// counted, not fatal — the server disappearing entirely shows up as
// Requests == Errors, which callers should treat as a failed run.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.URL == "" {
		return nil, errors.New("loadgen: Options.URL is required")
	}
	if opts.Path == "" {
		opts.Path = DefaultPath
	}
	if opts.Conns <= 0 {
		opts.Conns = DefaultConns
	}
	if opts.Duration <= 0 {
		opts.Duration = DefaultDuration
	}
	url := strings.TrimSuffix(opts.URL, "/") + opts.Path

	// One transport shared by all workers, sized so every worker keeps
	// its connection alive between requests — connection churn would
	// measure the TCP stack, not the server.
	transport := &http.Transport{
		MaxIdleConns:        opts.Conns,
		MaxIdleConnsPerHost: opts.Conns,
		IdleConnTimeout:     opts.Duration + time.Minute,
	}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	runCtx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	type workerResult struct {
		hist     Histogram
		requests uint64
		errors   uint64
	}
	results := make([]workerResult, opts.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			for runCtx.Err() == nil {
				req, err := http.NewRequestWithContext(runCtx, http.MethodGet, url, nil)
				if err != nil {
					res.requests++
					res.errors++
					return // a malformed URL will not improve with retries
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					if runCtx.Err() != nil {
						return // cancelled mid-request: not the server's fault
					}
					res.requests++
					res.errors++
					continue
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close() // drain error already captured in cerr
				res.hist.Record(time.Since(t0))
				res.requests++
				if resp.StatusCode != http.StatusOK || cerr != nil {
					res.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &Result{Elapsed: elapsed}
	for i := range results {
		out.Requests += results[i].requests
		out.Errors += results[i].errors
		out.Hist.Merge(&results[i].hist)
	}
	return out, nil
}
