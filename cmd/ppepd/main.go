// Command ppepd runs the PPEP daemon against a simulated chip, the way
// the paper's user-level daemon runs on real silicon: it trains the
// models once, binds a workload, then samples the hardware every 200 ms —
// counters through the MSR interface, temperature through hwmon —
// analyzes the interval, and applies an optional DVFS policy.
//
// Both modes run that one loop (daemon.Run) on one stack: the same
// device path, history ring, read retries, fault injection and policy.
// By default ppepd runs -seconds of simulated time flat out, printing
// live per-chip PPE projections for every VF state every fifth
// interval. With -serve it instead runs as an always-on service
// (Section IV-E as deployed): the loop becomes a context-cancellable
// goroutine paced by -pace that shuts down cleanly on SIGINT or
// SIGTERM, and an HTTP layer exposes /metrics, /reports,
// /reports/latest, /predict?vf=N, /predict/batch (all VF states in one
// JSON response), and /healthz (see docs/DAEMON.md). Prediction
// responses are pre-rendered once per interval and served lock-free;
// cmd/ppep-loadgen measures what that sustains.
//
// Usage:
//
//	ppepd [-workload 433x2] [-vf 5] [-policy none|energy|edp|cap] [-cap 70]
//	      [-scale 0.05] [-load models.json] [-ring 512]
//	      [-fault-msr 0.1] [-fault-hwmon 0.1]
//	      [-seconds 10 | -serve :8080 [-pace 200ms]]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
	"ppep/internal/dvfs"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/serve"
	"ppep/internal/trace"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// flags gathers every command-line knob for validation.
type flags struct {
	vf         int
	seconds    float64
	scale      float64
	capW       float64
	ring       int
	pace       time.Duration
	faultMSR   float64
	faultHwmon float64
}

// validate rejects out-of-range flag values with a usage-style error
// before any expensive work (an invalid -vf previously reached the
// simulator as undefined behaviour).
func (f flags) validate(table arch.VFTable) error {
	if f.vf < 1 || f.vf > len(table) {
		return fmt.Errorf("ppepd: -vf %d out of range: this platform has VF states 1..%d", f.vf, len(table))
	}
	if !(f.seconds > 0) || f.intervals() < 1 {
		return fmt.Errorf("ppepd: -seconds %v must be positive and round to at least one 200 ms interval", f.seconds)
	}
	if f.scale <= 0 {
		return fmt.Errorf("ppepd: -scale %v must be positive", f.scale)
	}
	if f.capW <= 0 {
		return fmt.Errorf("ppepd: -cap %v must be positive", f.capW)
	}
	if f.ring < 0 {
		return fmt.Errorf("ppepd: -ring %d must be non-negative (0 keeps all history)", f.ring)
	}
	if f.pace < 0 {
		return fmt.Errorf("ppepd: -pace %v must be non-negative", f.pace)
	}
	if f.faultMSR < 0 || f.faultMSR >= 1 {
		return fmt.Errorf("ppepd: -fault-msr %v must be in [0, 1)", f.faultMSR)
	}
	if f.faultHwmon < 0 || f.faultHwmon >= 1 {
		return fmt.Errorf("ppepd: -fault-hwmon %v must be in [0, 1)", f.faultHwmon)
	}
	return nil
}

// intervals is the number of 200 ms decision intervals a batch run of
// -seconds completes.
func (f flags) intervals() uint64 {
	return uint64(math.Round(f.seconds * 1000 / arch.DecisionIntervalMS))
}

func main() {
	var (
		wl      = flag.String("workload", "433x2", "workload: SPEC number with instance count (429x1, 433x4), 'mix' for the capping mix")
		vf      = flag.Int("vf", 5, "initial VF state (1..5)")
		seconds = flag.Float64("seconds", 10, "batch mode: run length in simulated seconds")
		policy  = flag.String("policy", "none", "DVFS policy: none, energy, edp, cap")
		capW    = flag.Float64("cap", 70, "power budget for -policy cap")
		scale   = flag.Float64("scale", 0.05, "training campaign scale")
		load    = flag.String("load", "", "load model coefficients from a ppep-train -save file instead of training")

		serveAddr  = flag.String("serve", "", "run as an always-on service on this HTTP address (e.g. :8080) instead of a finite batch")
		ring       = flag.Int("ring", 512, "report history ring capacity (0 = unbounded)")
		pace       = flag.Duration("pace", 200*time.Millisecond, "service mode: wall-clock pacing per simulated 200 ms interval (0 = flat out)")
		faultMSR   = flag.Float64("fault-msr", 0, "injected transient MSR fault rate in [0, 1)")
		faultHwmon = flag.Float64("fault-hwmon", 0, "injected transient diode fault rate in [0, 1)")
	)
	flag.Parse()

	fl := flags{vf: *vf, seconds: *seconds, scale: *scale, capW: *capW,
		ring: *ring, pace: *pace, faultMSR: *faultMSR, faultHwmon: *faultHwmon}
	if err := fl.validate(arch.FX8320VFTable); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	var models *core.Models
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		models, err = core.LoadModels(f)
		_ = f.Close() // read-only handle; close errors carry no data
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loaded models from %s: alpha=%.2f\n\n", *load, models.Dyn.Alpha)
	} else {
		fmt.Println("training PPEP models (one-time offline effort)...")
		camp, err := experiments.NewFXCampaign(experiments.Options{Scale: *scale, MaxRunsPerSuite: 6})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		models = camp.Models
		fmt.Printf("trained: alpha=%.2f\n\n", models.Dyn.Alpha)
	}

	run, err := workload.ParseRunSpec(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d, err := attach(models, run, *policy, fl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *serveAddr != "" {
		os.Exit(runServe(d, run.Name, *policy, *serveAddr, fl))
	}
	if err := runBatch(os.Stdout, d, fl.intervals()); err != nil {
		fmt.Fprintln(os.Stderr, "ppepd:", err)
		os.Exit(1)
	}
}

// attach builds the daemon stack both modes run: a chip at 318 K with
// the workload bound endlessly (every instance stretched and re-bound on
// completion, so the chip never idles out), the device-level daemon with
// a bounded history ring and read retries, optional fault injection, the
// initial VF state, and the -policy.
func attach(models *core.Models, run workload.Run, policy string, fl flags) (*daemon.Daemon, error) {
	cfg := fxsim.DefaultFX8320Config()
	cfg.PowerGating = true
	cfg.PerCUPlanes = policy == "cap"
	chip := fxsim.New(cfg)
	chip.SetTempK(318)

	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e15
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		return nil, err
	}

	d, err := daemon.AttachOpts(chip, models, nil, daemon.Options{
		HistoryCap: fl.ring,
		Retry:      daemon.Retry{Attempts: 4, Backoff: 100 * time.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	if d.Policy, err = newPolicy(policy, models, fl.capW, d.Counters()); err != nil {
		return nil, err
	}
	if err := chip.SetAllPStates(arch.VFState(fl.vf)); err != nil {
		return nil, err
	}
	if fl.faultMSR > 0 || fl.faultHwmon > 0 {
		d.InjectFaults(fl.faultMSR, fl.faultHwmon, 1)
		log.Printf("ppepd: fault injection on (msr=%.0f%%, hwmon=%.0f%%)",
			100*fl.faultMSR, 100*fl.faultHwmon)
	}
	return d, nil
}

// ---- batch mode (finite run, live printing) ----

// runBatch runs the daemon flat out for exactly n completed intervals,
// writing the live PPE report to w every fifth interval. A failed write
// stops the run and is returned.
func runBatch(w io.Writer, d *daemon.Daemon, n uint64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	var werr error
	d.OnInterval = func(rec daemon.Record) {
		if rec.Seq%5 == 1 {
			buf.Reset()
			printReport(&buf, rec)
			if _, werr = w.Write(buf.Bytes()); werr != nil {
				cancel()
			}
		}
		if rec.Seq >= n {
			cancel()
		}
	}
	if err := d.Run(ctx); !isCanceled(err) {
		return err
	}
	if werr != nil {
		return werr
	}
	logSummary(d)
	return nil
}

// printReport renders one interval's measurement and its projection at
// every VF state, the measured state starred.
func printReport(b *bytes.Buffer, rec daemon.Record) {
	iv, rep := &rec.Interval, rec.Report
	fmt.Fprintf(b, "t=%5.1fs  diode=%.1f°C  state=%v  measured=%.1fW\n",
		iv.TimeS, float64(units.Kelvin(iv.TempK).Celsius()), iv.VF(), iv.MeasPowerW)
	fmt.Fprintf(b, "  %-6s %10s %10s %10s %12s\n", "state", "chip W", "idle W", "IPS", "J/interval")
	for i := len(rep.PerVF) - 1; i >= 0; i-- {
		p := rep.PerVF[i]
		marker := " "
		if p.VF == rep.MeasuredVF {
			marker = "*"
		}
		fmt.Fprintf(b, " %s%-6v %10.1f %10.1f %10.2e %12.2f\n",
			marker, p.VF, p.ChipW, p.IdleW, p.TotalIPS, p.IntervalEnergyJ)
	}
}

// applyAll requests one P-state for every CU, counting and (rate-limited)
// logging rejections instead of silently dropping them: a rejected
// request leaves the previous state and is retried next interval.
func applyAll(ch *fxsim.Chip, s arch.VFState, counters *daemon.Counters, rl *rateLimited) {
	if err := ch.SetAllPStates(s); err != nil {
		counters.PolicyRejects.Add(1)
		rl.logf("ppepd: policy request for %v rejected: %v", s, err)
	}
}

// rateLimited emits through log.Printf at most once per period, counting
// what it suppressed in between.
type rateLimited struct {
	period     time.Duration
	last       time.Time
	suppressed uint64
}

func newRateLimited(period time.Duration) *rateLimited {
	return &rateLimited{period: period}
}

func (r *rateLimited) logf(format string, args ...any) {
	now := time.Now()
	if !r.last.IsZero() && now.Sub(r.last) < r.period {
		r.suppressed++
		return
	}
	if r.suppressed > 0 {
		format += fmt.Sprintf(" (%d similar suppressed)", r.suppressed)
		r.suppressed = 0
	}
	r.last = now
	log.Printf(format, args...)
}

// ---- service mode (-serve) ----

// runServe runs the always-on daemon: paced against the wall clock,
// HTTP observability, and graceful shutdown on SIGINT/SIGTERM.
func runServe(d *daemon.Daemon, workloadName, policy, addr string, fl flags) int {
	if fl.pace > 0 {
		d.Throttle = func() { time.Sleep(fl.pace) }
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.New(d, serve.Options{StaleAfter: staleAfter(fl.pace)})
	loopDone := make(chan error, 1)
	go func() { loopDone <- d.Run(ctx) }()
	log.Printf("ppepd: serving on %s (workload %s, policy %s, ring %d)", addr, workloadName, policy, fl.ring)

	err := srv.ListenAndServe(ctx, addr)
	stop() // a server failure must also stop the sampling loop
	if lerr := <-loopDone; lerr != nil && !isCanceled(lerr) {
		fmt.Fprintln(os.Stderr, "ppepd: sampling loop:", lerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppepd:", err)
		return 1
	}
	logSummary(d)
	return 0
}

// logSummary logs the end-of-run counters, the same line in both modes.
func logSummary(d *daemon.Daemon) {
	s := d.Counters().Snapshot()
	log.Printf("ppepd: clean shutdown after %d intervals (%d skipped, %d analyze errors, %d policy rejects, %d msr retries, %d hwmon retries)",
		s.Intervals, s.SkippedIntervals, s.AnalyzeErrors, s.PolicyRejects, s.MSRRetries, s.HwmonRetries)
}

// staleAfter derives a /healthz staleness threshold from the pacing: a
// healthy loop completes an interval every pace (plus epsilon), so 25
// missed intervals is decisively stale. Unpaced loops use the default.
func staleAfter(pace time.Duration) time.Duration {
	if pace <= 0 {
		return 0 // serve.DefaultStaleAfter
	}
	return 25 * pace
}

// isCanceled reports whether the loop exited through context
// cancellation (the clean path).
func isCanceled(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}

// newPolicy maps the -policy flag onto a daemon.Policy with rejection
// counting (surfaced at /metrics as ppep_policy_rejects_total). The
// policy consumes the daemon's report, so an interval is analyzed once.
func newPolicy(name string, models *core.Models, capW float64, counters *daemon.Counters) (daemon.Policy, error) {
	rl := newRateLimited(2 * time.Second)
	switch name {
	case "none":
		return nil, nil
	case "energy":
		return daemon.PolicyFunc(func(ch *fxsim.Chip, iv trace.Interval, rep *core.Report) {
			applyAll(ch, dvfs.EnergyOptimal(rep), counters, rl)
		}), nil
	case "edp":
		return daemon.PolicyFunc(func(ch *fxsim.Chip, iv trace.Interval, rep *core.Report) {
			applyAll(ch, dvfs.EDPOptimal(rep), counters, rl)
		}), nil
	case "cap":
		capper := &dvfs.PPEPCapper{Models: models, Target: func(units.Seconds) units.Watts { return units.Watts(capW) }}
		return daemon.PolicyFunc(func(ch *fxsim.Chip, iv trace.Interval, rep *core.Report) {
			capper.Decide(ch, iv)
		}), nil
	default:
		return nil, fmt.Errorf("ppepd: unknown policy %q", name)
	}
}
