package main

// ppepd-serve: one in-process ppepd stack (daemon.AttachOpts →
// serve.New → Server.Serve on loopback) with the chip running the
// steady microbenchmark on every core. The benchmark paces the daemon
// itself, one RunIntervals(1) about every 2 ms, so the interval
// sequence is deterministic; meanwhile an open-loop generator sends
// ~5,000 req/s over nproc keep-alive connections, then, with the
// daemon paused, a closed loop over the same number of connections
// measures capacity. Table publishes run beside the open loop's
// reads, so cost moved from requests into Observe shows as slower
// intervals.
//
// The request mix follows the readers of a ppepd. A governor choosing
// the next VF state weighs every state once per decision interval (the
// PPEP governors of internal/dvfs analyze all states each interval),
// which over HTTP is one /predict/batch per interval: at one interval
// per servePace that is 500 of the 5,000 req/s. About 1% are /metrics
// scrapes, and the rest are /predict?vf=N point reads of one state.
// The traced run reports /predict and /predict/batch latencies apart,
// so a change to either shows whatever the split.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/fleet"
	"ppep/internal/fxsim"
	"ppep/internal/serve"
	"ppep/internal/units"
	"ppep/internal/workload"
)

const (
	serveRate = 5000 // open-loop requests per second, all connections
	servePace = 2 * time.Millisecond
	// batchShare is one governor's /predict/batch per interval.
	batchShare   = float64(time.Second/servePace) / serveRate
	metricsShare = 0.01
	serveHistory = 256
	// serveErrIntervals is how many leading intervals the accuracy
	// figure covers; fixed so it repeats exactly for a seed.
	serveErrIntervals = 200
	// openShare is the open-loop phase's share of --seconds; the
	// closed loop takes the rest.
	openShare = 0.6
	// closedBucket is the period the closed loop's throughput is
	// counted over.
	closedBucket = 100 * time.Millisecond
	// reqHeader carries the request id of a traced request; the
	// benchmark's handler wrapper opens a span only for those.
	reqHeader = "X-Perfbench-Req"
)

// reqKind is one entry of the request mix.
type reqKind int

const (
	kindPredict reqKind = iota
	kindBatch
	kindMetrics
)

var kindPaths = [...]string{kindPredict: "/predict", kindBatch: "/predict/batch", kindMetrics: "/metrics"}

// spanNames is per kind, so the handler wrapper never builds strings.
var spanNames = [...]string{kindPredict: "serve.handler.predict", kindBatch: "serve.handler.batch", kindMetrics: "serve.handler.metrics"}

// request is one drawn request: its kind and, for /predict, the VF.
type request struct {
	kind reqKind
	vf   int
}

// draw picks the next request: metricsShare /metrics, batchShare
// /predict/batch (JSON), the rest /predict?vf=N with N uniform over the
// VF states.
func draw(rng *splitmix, nVF int) request {
	u := rng.unit()
	switch {
	case u < metricsShare:
		return request{kind: kindMetrics}
	case u < metricsShare+batchShare:
		return request{kind: kindBatch}
	}
	return request{kind: kindPredict, vf: 1 + rng.intn(nVF)}
}

func (q request) appendPath(b []byte) []byte {
	b = append(b, kindPaths[q.kind]...)
	if q.kind == kindPredict {
		b = strconv.AppendInt(append(b, "?vf="...), int64(q.vf), 10)
	}
	return b
}

// buildStack assembles a ppepd stack (daemon and HTTP server) on a
// chip whose sensor noise and starting temperature come from the seed.
func buildStack(seed int64, models *core.Models) (*daemon.Daemon, *serve.Server, error) {
	cfg := fxsim.DefaultFX8320Config()
	rng := stream(seed, 0x63686970) // "chip"
	cfg.SensorSeed = int64(rng.next() >> 1)
	chip := fxsim.New(cfg)
	chip.SetTempK(units.Kelvin(305 + 12*rng.unit()))
	for c := 0; c < chip.Topology().NumCores(); c++ {
		if err := chip.Bind(c, workload.BenchSteady(), true); err != nil {
			return nil, nil, err
		}
	}
	d, err := daemon.AttachOpts(chip, models, nil, daemon.Options{HistoryCap: serveHistory})
	if err != nil {
		return nil, nil, err
	}
	return d, serve.New(d, serve.Options{}), nil
}

// pacerResult is what the daemon driver measured.
type pacerResult struct {
	// intervalUS is RunIntervals(1) wall time.
	intervalUS []float64
	intervals  int64
	errs       []error
	errSum     float64
	errN       int
}

// pace drives the daemon one interval about every servePace until stop
// closes and at least the accuracy window has run.
func pace(r *run, d *daemon.Daemon, stop <-chan struct{}, parent *int) pacerResult {
	var res pacerResult
	timer, err := newWakeTimer()
	if err != nil {
		res.errs = append(res.errs, err)
		return res
	}
	defer timer.Close()
	prev := d.Predictions()
	seq := prev.Seq
	due := time.Now()
	for {
		due = due.Add(servePace)
		if time.Since(due) > servePace {
			due = time.Now() // fell behind: do not burst to catch up
		}
		if err := timer.sleepUntil(due); err != nil {
			res.errs = append(res.errs, err)
			return res
		}
		select {
		case <-stop:
			if res.errN >= serveErrIntervals || res.intervals >= 2*serveErrIntervals {
				return res
			}
		default:
		}
		*parent = r.tr.begin("daemon.run_interval", -1, 0)
		t0 := time.Now()
		err := d.RunIntervals(1)
		dt := time.Since(t0)
		r.tr.end(*parent)
		res.intervals++
		res.intervalUS = append(res.intervalUS, us(dt))
		if err != nil {
			res.errs = append(res.errs, fmt.Errorf("daemon: interval: %w", err))
			continue
		}
		seq++
		rec, _ := d.Latest()
		t := d.Predictions()
		if err := checkTable(t, len(d.Models.Table)); err != nil || rec.Seq != seq || t.Seq != seq {
			res.errs = append(res.errs, fmt.Errorf("daemon: interval %d (record %d, table %d): %v", seq, rec.Seq, t.Seq, err))
			continue
		}
		if res.errN < serveErrIntervals {
			truth := rec.Interval.TruePowerW
			res.errSum += math.Abs(float64(prev.Row(rec.Interval.VF()).ChipW)-truth) / truth
			res.errN++
		}
		prev = t
	}
}

// checkTable verifies a published prediction table: one row per VF
// state in order, every power finite and non-negative, every CPI > 0.
func checkTable(t *core.PredictionTable, nVF int) error {
	if t == nil {
		return errors.New("no table")
	}
	if len(t.Rows) != nVF {
		return fmt.Errorf("%d rows, want %d", len(t.Rows), nVF)
	}
	for i, row := range t.Rows {
		if err := checkRow(row, i+1); err != nil {
			return err
		}
	}
	return nil
}

func checkRow(row core.PredictionRow, vf int) error {
	if int(row.VF) != vf {
		return fmt.Errorf("row vf %d, want %d", row.VF, vf)
	}
	for _, w := range []float64{float64(row.ChipW), float64(row.IdleW), float64(row.DynW)} {
		if !finiteNonNeg(w) {
			return fmt.Errorf("vf %d: power %v", vf, w)
		}
	}
	if !(row.CPI > 0) || !finiteNonNeg(float64(row.CPI)) {
		return fmt.Errorf("vf %d: cpi %v", vf, row.CPI)
	}
	return nil
}

// decoded is the scratch a connection decodes response bodies into, so
// checking a response allocates little beside the decoder itself: the
// benchmark shares its heap with the server under test, and client
// garbage would set the server's GC pace.
type decoded struct {
	pred struct {
		Seq        uint64             `json:"seq"`
		Projection core.PredictionRow `json:"projection"`
	}
	table core.PredictionTable
}

// checkResponse verifies one response body for its request. lastSeq is
// the connection's newest interval seq so far: it must never go back.
func (d *decoded) checkResponse(q request, status int, body []byte, nVF int, lastSeq *uint64) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", kindPaths[q.kind], status)
	}
	var seq uint64
	switch q.kind {
	case kindPredict:
		d.pred.Seq, d.pred.Projection = 0, core.PredictionRow{}
		if err := json.Unmarshal(body, &d.pred); err != nil {
			return fmt.Errorf("/predict?vf=%d: %w", q.vf, err)
		}
		if err := checkRow(d.pred.Projection, q.vf); err != nil {
			return fmt.Errorf("/predict?vf=%d: %w", q.vf, err)
		}
		seq = d.pred.Seq
	case kindBatch:
		// Zero the reused rows: a field missing from the body must not
		// keep the previous response's value.
		rows := d.table.Rows[:cap(d.table.Rows)]
		clear(rows)
		d.table = core.PredictionTable{Rows: rows[:0]}
		if err := json.Unmarshal(body, &d.table); err != nil {
			return fmt.Errorf("/predict/batch: %w", err)
		}
		if err := checkTable(&d.table, nVF); err != nil {
			return fmt.Errorf("/predict/batch: %w", err)
		}
		seq = d.table.Seq
	case kindMetrics:
		if !bytes.Contains(body, []byte("\nppep_intervals_total ")) || bytes.Contains(body, []byte("NaN")) {
			return errors.New("/metrics: missing interval counter or NaN value")
		}
		return nil
	}
	if seq < *lastSeq {
		return fmt.Errorf("%s: seq went back from %d to %d", kindPaths[q.kind], *lastSeq, seq)
	}
	*lastSeq = seq
	return nil
}

// conn is one keep-alive client connection and what it measured. It
// speaks HTTP/1.1 directly over the socket: net/http.Client would hand
// every request through two more goroutines of its own, and that
// client-side scheduling would land in the latencies measured here.
type conn struct {
	nc      net.Conn
	br      *bufio.Reader
	req     []byte
	body    bytes.Buffer
	dec     decoded
	timer   *wakeTimer
	rng     splitmix // request kinds
	gaps    splitmix // open-loop arrival gaps
	lastSeq uint64
	// open loop, per request: the time from send to response, the
	// latency charged for queueing (see openLoop), its kind, how late
	// the send was, and on a traced run the time from send to response
	// split by whether the request was traced.
	latMS, chargedMS, lateUS []float64
	kinds                    []reqKind
	tracedMS, plainMS        []float64
	// queued counts open-loop requests that fell due while the
	// connection still waited for an earlier response; lastRead is when
	// the connection's last open-loop response was read.
	queued   int
	lastRead time.Time
	// perBucket counts closed-loop OK responses per closedBucket.
	perBucket []int64
	ok        int64
	errs      []error
}

func dial(addr string, seed int64, w int) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t, err := newWakeTimer()
	if err != nil {
		nc.Close()
		return nil, err
	}
	return &conn{
		nc:    nc,
		br:    bufio.NewReader(nc),
		timer: t,
		rng:   stream(seed, 0x636f6e6e+uint64(w)), // "conn"+w
		gaps:  stream(seed, 0x67617073+uint64(w)), // "gaps"+w
	}, nil
}

func (c *conn) close() {
	c.nc.Close()
	c.timer.Close()
}

// do sends one request and checks the answer. id > 0 marks it traced.
// It also returns when the response had been read: the client's own
// decoding is not part of the latency.
func (c *conn) do(r *run, q request, nVF int, id int64) (time.Time, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = q.appendPath(c.req)
	c.req = append(c.req, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	span := -1
	if id > 0 {
		c.req = append(c.req, reqHeader+": "...)
		c.req = strconv.AppendInt(c.req, id, 10)
		c.req = append(c.req, "\r\n"...)
		span = r.tr.begin("gen.request", -1, id)
	}
	c.req = append(c.req, "\r\n"...)
	if _, err := c.nc.Write(c.req); err != nil {
		r.tr.end(span)
		return time.Now(), err
	}
	status, err := readResponse(c.br, &c.body)
	read := time.Now()
	r.tr.end(span)
	if err != nil {
		return read, err
	}
	return read, c.dec.checkResponse(q, status, c.body.Bytes(), nVF, &c.lastSeq)
}

// openLoop sends connection w's share of the open-loop stream: its
// requests arrive as a Poisson process of rate serveRate/conns, drawn
// from the seed, so the connections together offer serveRate. Random
// gaps keep the arrivals from locking in phase with the daemon's fixed
// 2 ms pace, which would make every request of a run meet the
// interval at the same point.
//
// A request that falls due while the connection still waits for an
// earlier response goes out late, and a slower server makes the
// generator fall behind; the time from send to response does not show
// that wait. Each request is therefore also charged its time from send
// to response plus the time it was due before the earlier response
// came back, and the run counts how many queued so. What is not
// charged is the generator's own delay: a late wake-up from its timer
// and the client's check of the previous body, which measure the host
// and the benchmark rather than the server.
func (c *conn) openLoop(r *run, nVF, w, conns int, start, end time.Time) {
	mean := float64(time.Second) * float64(conns) / serveRate
	n := int(1.1 * float64(end.Sub(start)) / mean)
	c.latMS, c.chargedMS = make([]float64, 0, n), make([]float64, 0, n)
	c.lateUS, c.kinds = make([]float64, 0, n), make([]reqKind, 0, n)
	due, prevRead := start, start
	for k := int64(0); ; k++ {
		due = due.Add(time.Duration(-math.Log(1-c.gaps.unit()) * mean))
		if !due.Before(end) {
			return
		}
		if err := c.timer.sleepUntil(due); err != nil {
			c.record(err)
			return
		}
		sent := time.Now()
		q := draw(&c.rng, nVF)
		var id int64
		if r.tr != nil && k%2 == 0 { // every other request of this connection
			id = k*int64(conns) + int64(w) + 1
		}
		read, err := c.do(r, q, nVF, id)
		resp := ms(read.Sub(sent))
		chg, queued := charged(due, sent, read, prevRead)
		if queued {
			c.queued++
		}
		prevRead, c.lastRead = read, read
		c.latMS = append(c.latMS, resp)
		c.chargedMS = append(c.chargedMS, ms(chg))
		c.lateUS = append(c.lateUS, us(sent.Sub(due)))
		c.kinds = append(c.kinds, q.kind)
		if id > 0 {
			c.tracedMS = append(c.tracedMS, resp)
		} else if r.tr != nil {
			c.plainMS = append(c.plainMS, resp)
		}
		c.record(err)
	}
}

// charged is the latency an open-loop request is charged: its time
// from send to response, plus the time it was due before the
// connection's previous response was read, if it was.
func charged(due, sent, read, prevRead time.Time) (time.Duration, bool) {
	lat := read.Sub(sent)
	if wait := prevRead.Sub(due); wait > 0 {
		return lat + wait, true
	}
	return lat, false
}

// closedLoop sends back to back until end, at least once, and counts
// the OK responses per closedBucket since start.
func (c *conn) closedLoop(r *run, nVF int, start, end time.Time) {
	for first := true; first || time.Now().Before(end); first = false {
		read, err := c.do(r, draw(&c.rng, nVF), nVF, 0)
		c.record(err)
		if b := int(read.Sub(start) / closedBucket); err == nil {
			for len(c.perBucket) <= b {
				c.perBucket = append(c.perBucket, 0)
			}
			c.perBucket[b]++
		}
	}
}

func (c *conn) record(err error) {
	if err != nil {
		c.errs = append(c.errs, err)
		return
	}
	c.ok++
}

// tracedHandler opens a handler span for every request that carries a
// request id.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		name := spanNames[kindPredict]
		switch req.URL.Path {
		case kindPaths[kindBatch]:
			name = spanNames[kindBatch]
		case kindPaths[kindMetrics]:
			name = spanNames[kindMetrics]
		}
		s := t.begin(name, -1, id)
		h.ServeHTTP(w, req)
		t.end(s)
	})
}

// listen starts serving on a loopback port and returns its address and
// a stop function that returns once the server has shut down. The
// untraced run serves through Server.Serve; the traced run needs the
// handler wrapped, so it builds its own http.Server around
// Server.Handler.
func listen(r *run, srv *serve.Server) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	if r.tr == nil {
		go func() { errc <- srv.Serve(ctx, ln) }()
		return addr, func() error { cancel(); return <-errc }, nil
	}
	hs := &http.Server{Handler: tracedHandler(r.tr, srv.Handler()), ReadHeaderTimeout: serve.DefaultReadHeaderTimeout}
	go func() { errc <- hs.Serve(ln) }()
	stop := func() error {
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	return addr, stop, nil
}

func runServe(r *run) error {
	var setups, slims []float64
	var d *daemon.Daemon
	var srv *serve.Server
	var models *core.Models
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		m, err := fleet.SlimModels()
		if err != nil {
			return err
		}
		slims = append(slims, time.Since(t0).Seconds())
		dd, s, err := buildStack(r.seed, m)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d, srv, models = dd, s, m
	}
	r.set("setup_s", median(setups))
	r.set("fleet.slim_models_s", median(slims))
	nVF := len(models.Table)

	// Observe is the daemon's OnInterval hook (chained by serve.New);
	// the traced run spans it as a child of the interval.
	parent := -1
	if r.tr != nil {
		inner := d.OnInterval
		d.OnInterval = func(rec daemon.Record) {
			id := r.tr.begin("serve.observe", parent, 0)
			inner(rec)
			r.tr.end(id)
		}
	}
	// One interval before any request, so every endpoint has a table.
	r.op(d.RunIntervals(1))
	if d.Predictions() == nil {
		return errors.New("daemon published no table")
	}
	addr, stopServer, err := listen(r, srv)
	if err != nil {
		return err
	}

	conns := make([]*conn, r.nproc)
	for w := range conns {
		c, err := dial(addr, r.seed, w)
		if err != nil {
			stopServer()
			return err
		}
		defer c.close()
		conns[w] = c
	}

	// The daemon runs beside the open loop only: the closed loop
	// measures what the server answers with the table standing still.
	stopPacer := make(chan struct{})
	pacerDone := make(chan pacerResult, 1)
	go func() { pacerDone <- pace(r, d, stopPacer, &parent) }()
	// One request per connection before the schedule starts, so no
	// timed request pays for connection set-up.
	each(conns, func(_ int, c *conn) {
		_, err := c.do(r, request{kind: kindBatch}, nVF, 0)
		c.record(err)
	})
	start := time.Now()
	openEnd := start.Add(time.Duration(float64(r.seconds) * openShare))
	each(conns, func(w int, c *conn) { c.openLoop(r, nVF, w, len(conns), start, openEnd) })
	close(stopPacer)
	pr := <-pacerDone
	var openOK int64
	for _, c := range conns {
		openOK += c.ok
		c.ok = 0
	}
	closedStart := time.Now()
	closedEnd := start.Add(r.seconds)
	each(conns, func(_ int, c *conn) { c.closedLoop(r, nVF, closedStart, closedEnd) })
	closedDur := time.Since(closedStart)
	if err := stopServer(); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}

	var lat, chg, late, tracedLat, plainLat []float64
	var kinds []reqKind
	var closedOK, failedReqs int64
	queued, openLast := 0, start
	for _, c := range conns {
		lat = append(lat, c.latMS...)
		chg = append(chg, c.chargedMS...)
		late = append(late, c.lateUS...)
		kinds = append(kinds, c.kinds...)
		queued += c.queued
		if c.lastRead.After(openLast) {
			openLast = c.lastRead
		}
		tracedLat = append(tracedLat, c.tracedMS...)
		plainLat = append(plainLat, c.plainMS...)
		closedOK += c.ok
		failedReqs += int64(len(c.errs))
		for _, err := range c.errs {
			r.note(err)
		}
	}
	r.attempted += openOK + closedOK + failedReqs
	r.failed += failedReqs
	r.attempted += pr.intervals
	r.failed += int64(len(pr.errs))
	for _, err := range pr.errs {
		r.note(err)
	}
	if pr.errN < serveErrIntervals {
		r.op(fmt.Errorf("daemon: %d intervals checked, want %d", pr.errN, serveErrIntervals))
	}

	// The open loop falls behind the rate it offers when the server
	// cannot keep up; every run says how far behind it fell and how
	// many requests queued.
	offered := float64(len(lat)) / openEnd.Sub(start).Seconds()
	achieved := float64(len(lat)) / openLast.Sub(start).Seconds()
	queuedShare := float64(queued) / float64(max(len(lat), 1))
	fmt.Printf("open loop: %d requests, offered %.0f req/s, achieved %.0f req/s, %.1f%% queued behind an earlier response; charged for the wait p50 %.3f ms, p90 %.3f ms\n",
		len(lat), offered, achieved, 100*queuedShare, median(chg), quantile(chg, 0.9))
	if achieved < 0.9*offered {
		fmt.Fprintf(os.Stderr, "perfbench: warning: the open loop fell behind: %.0f of %.0f req/s\n", achieved, offered)
	}

	// Closed-loop capacity: the median over closedBucket periods.
	var rates []float64
	for b := 0; b < int(closedDur/closedBucket); b++ {
		var n int64
		for _, c := range conns {
			if b < len(c.perBucket) {
				n += c.perBucket[b]
			}
		}
		rates = append(rates, float64(n)/closedBucket.Seconds())
	}
	if len(rates) == 0 { // the closed loop was shorter than one bucket
		rates = []float64{float64(closedOK) / closedDur.Seconds()}
	}
	intervals := pr.intervalUS
	r.set("ops_per_s", median(rates))
	r.set("produce_p50_ms", median(intervals)/1000)
	r.set("produce_p90_ms", quantile(intervals, 0.9)/1000)
	r.set("answer_p50_ms", median(lat))
	r.set("answer_p90_ms", quantile(lat, 0.9))
	if pr.errN > 0 {
		r.set("pred_err_pct", 100*pr.errSum/float64(pr.errN))
	}
	if r.tr == nil {
		return nil
	}

	st := r.tr.stats()
	r.set("daemon.interval_self_us", st.p50("daemon.run_interval", true))
	r.set("serve.observe_us", st.p50("serve.observe", false))
	r.set("serve.handler_us.predict", st.p50(spanNames[kindPredict], false))
	r.set("serve.handler_us.batch", st.p50(spanNames[kindBatch], false))
	r.set("serve.handler_us.metrics", st.p50(spanNames[kindMetrics], false))
	r.set("serve.failed_requests", float64(failedReqs))
	r.set("gen.late_p99_us", quantile(late, 0.99))
	r.set("gen.achieved_rps", achieved)
	r.set("gen.queued_share", queuedShare)
	r.set("daemon.interval_p99_us", quantile(intervals, 0.99))
	r.set("serve.req_p99_us", 1000*quantile(lat, 0.99))
	r.set("serve.req_charged_p50_us", 1000*median(chg))
	r.set("serve.req_charged_p90_us", 1000*quantile(chg, 0.9))
	var byKind [len(kindPaths)][]float64
	for i, k := range kinds {
		byKind[k] = append(byKind[k], lat[i])
	}
	r.set("serve.req_p50_us.predict", 1000*median(byKind[kindPredict]))
	r.set("serve.req_p50_us.batch", 1000*median(byKind[kindBatch]))
	r.set("trace.overhead_pct", 100*(median(tracedLat)-median(plainLat))/median(plainLat))
	cs := d.Counters().Snapshot()
	r.set("daemon.skipped_intervals", float64(cs.SkippedIntervals))
	r.set("daemon.msr_retries", float64(cs.MSRRetries))
	if es := d.EngineStats(); es.FastTicks+es.ReferenceTicks > 0 {
		r.set("fxsim.fast_tick_share", float64(es.FastTicks)/float64(es.FastTicks+es.ReferenceTicks))
	}

	// The daemon analyzes inside RunIntervals, out of the benchmark's
	// reach; replay its retained intervals to time the model stages.
	var rep core.Report
	for i, iv := range d.Intervals() {
		var err error
		r.tr.timed("core.analyze_into", -1, func() { err = models.AnalyzeInto(iv, &rep) })
		if err == nil {
			r.tr.timed("core.prediction_table", -1, func() { models.PredictionTable(uint64(i+1), iv, &rep) })
		}
		r.op(err)
	}
	st = r.tr.stats()
	r.set("core.analyze_into_us", st.p50("core.analyze_into", false))
	r.set("core.prediction_table_us", st.p50("core.prediction_table", false))
	return nil
}

// each runs fn on every connection concurrently and waits for all.
func each(conns []*conn, fn func(int, *conn)) {
	var wg sync.WaitGroup
	wg.Add(len(conns))
	for w, c := range conns {
		go func(w int, c *conn) {
			defer wg.Done()
			fn(w, c)
		}(w, c)
	}
	wg.Wait()
}
