// Command ppepd runs the PPEP daemon against a simulated chip, the way
// the paper's user-level daemon runs on real silicon: it trains the
// models once, binds a workload, then samples the hardware every 200 ms —
// counters through the MSR interface, temperature through hwmon — and
// prints live per-chip PPE projections for every VF state, applying an
// optional DVFS policy.
//
// With -serve it instead runs as an always-on service (Section IV-E as
// deployed): the sampling/analyze/policy loop becomes a
// context-cancellable goroutine that shuts down cleanly on SIGINT or
// SIGTERM, report history is bounded by a ring buffer, device reads are
// retried with backoff, and an HTTP layer exposes /metrics, /reports,
// /reports/latest, /predict?vf=N, /predict/batch (all VF states in one
// JSON response), and /healthz (see docs/DAEMON.md). Prediction
// responses are pre-rendered once per interval and served lock-free;
// cmd/ppep-loadgen measures what that sustains.
//
// Usage:
//
//	ppepd [-workload 433x2] [-vf 5] [-seconds 10] [-policy none|energy|edp|cap]
//	      [-cap 70] [-scale 0.05] [-load models.json]
//	      [-serve :8080] [-ring 512] [-pace 200ms]
//	      [-fault-msr 0.1] [-fault-hwmon 0.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
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
	"ppep/internal/hwmon"
	"ppep/internal/msr"
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
	if f.seconds <= 0 {
		return fmt.Errorf("ppepd: -seconds %v must be positive", f.seconds)
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

func main() {
	var (
		wl      = flag.String("workload", "433x2", "workload: SPEC number with instance count (429x1, 433x4), 'mix' for the capping mix")
		vf      = flag.Int("vf", 5, "initial VF state (1..5)")
		seconds = flag.Float64("seconds", 10, "run length in simulated seconds")
		policy  = flag.String("policy", "none", "DVFS policy: none, energy, edp, cap")
		capW    = flag.Float64("cap", 70, "power budget for -policy cap")
		scale   = flag.Float64("scale", 0.05, "training campaign scale")
		load    = flag.String("load", "", "load model coefficients from a ppep-train -save file instead of training")

		serveAddr  = flag.String("serve", "", "run as an always-on service on this HTTP address (e.g. :8080) instead of a finite batch")
		ring       = flag.Int("ring", 512, "service mode: report history ring capacity (0 = unbounded)")
		pace       = flag.Duration("pace", 200*time.Millisecond, "service mode: wall-clock pacing per simulated 200 ms interval (0 = flat out)")
		faultMSR   = flag.Float64("fault-msr", 0, "service mode: injected transient MSR fault rate in [0, 1)")
		faultHwmon = flag.Float64("fault-hwmon", 0, "service mode: injected transient diode fault rate in [0, 1)")
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
	cfg := fxsim.DefaultFX8320Config()
	cfg.PowerGating = true
	if *policy == "cap" {
		cfg.PerCUPlanes = true
	}
	chip := fxsim.New(cfg)
	chip.SetTempK(318)

	if *serveAddr != "" {
		os.Exit(runServe(chip, models, run, *policy, *serveAddr, fl))
	}
	runBatch(chip, models, run, *policy, fl)
}

// ---- batch mode (finite run, live printing) ----

func runBatch(chip *fxsim.Chip, models *core.Models, run workload.Run, policy string, fl flags) {
	// Device-level access, as on the real platform.
	msrDev := msr.Open(chip)
	diode := hwmon.Open(chip)

	var counters daemon.Counters
	rejectLog := newRateLimited(2 * time.Second)

	var ctl fxsim.Controller
	switch policy {
	case "none":
	case "energy":
		ctl = policyFunc(func(ch *fxsim.Chip, iv trace.Interval) {
			if rep, err := models.Analyze(iv); err == nil {
				applyAll(ch, dvfs.EnergyOptimal(rep), &counters, rejectLog)
			}
		})
	case "edp":
		ctl = policyFunc(func(ch *fxsim.Chip, iv trace.Interval) {
			if rep, err := models.Analyze(iv); err == nil {
				applyAll(ch, dvfs.EDPOptimal(rep), &counters, rejectLog)
			}
		})
	case "cap":
		ctl = &dvfs.PPEPCapper{Models: models, Target: func(units.Seconds) units.Watts { return units.Watts(fl.capW) }}
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", policy)
		os.Exit(2)
	}

	printer := &daemonPrinter{models: models, inner: ctl, msr: msrDev, diode: diode,
		counters: &counters, errLog: newRateLimited(2 * time.Second)}
	_, err := chip.Collect(run, fxsim.RunOpts{
		VF: arch.VFState(fl.vf), MaxTimeS: fl.seconds, Restart: true,
		Placement: fxsim.PlaceScatter, WarmTempK: 318, Controller: printer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if s := counters.Snapshot(); s.AnalyzeErrors > 0 || s.PolicyRejects > 0 {
		fmt.Fprintf(os.Stderr, "ppepd: %d analyze errors, %d rejected policy decisions during the run\n",
			s.AnalyzeErrors, s.PolicyRejects)
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

// policyFunc adapts a closure into a Controller.
type policyFunc func(*fxsim.Chip, trace.Interval)

func (f policyFunc) Decide(c *fxsim.Chip, iv trace.Interval) { f(c, iv) }

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

// daemonPrinter prints the live PPE report each interval, then delegates
// to the wrapped policy.
type daemonPrinter struct {
	models   *core.Models
	inner    fxsim.Controller
	msr      *msr.Device
	diode    *hwmon.Sensor
	counters *daemon.Counters
	errLog   *rateLimited
	step     int
}

func (d *daemonPrinter) Decide(chip *fxsim.Chip, iv trace.Interval) {
	d.step++
	rep, err := d.models.Analyze(iv)
	if err != nil {
		// An unanalyzable interval (e.g. a mid-run counter glitch) is an
		// operational event, not a silent skip.
		d.counters.AnalyzeErrors.Add(1)
		d.errLog.logf("ppepd: interval t=%.1fs not analyzable: %v", iv.TimeS, err)
		return
	}
	if d.step%5 == 1 {
		// Demonstrate the device-level read path alongside the interval.
		pstate, _ := d.msr.Rdmsr(0, msr.PStateStatus)
		fmt.Printf("t=%5.1fs  diode=%.1f°C  P-state=P%d  measured=%.1fW\n",
			iv.TimeS, float64(d.diode.Temp1InputMilliC())/1000, pstate, iv.MeasPowerW)
		fmt.Printf("  %-6s %10s %10s %10s %12s\n", "state", "chip W", "idle W", "IPS", "J/interval")
		for i := len(rep.PerVF) - 1; i >= 0; i-- {
			p := rep.PerVF[i]
			marker := " "
			if p.VF == rep.MeasuredVF {
				marker = "*"
			}
			fmt.Printf(" %s%-6v %10.1f %10.1f %10.2e %12.2f\n",
				marker, p.VF, p.ChipW, p.IdleW, p.TotalIPS, p.IntervalEnergyJ)
		}
	}
	if d.inner != nil {
		d.inner.Decide(chip, iv)
	}
}

// ---- service mode (-serve) ----

// runServe runs the always-on daemon: workload bound endlessly, bounded
// history ring, device retries, optional fault injection, HTTP
// observability, and graceful shutdown on SIGINT/SIGTERM.
func runServe(chip *fxsim.Chip, models *core.Models, run workload.Run, policy, addr string, fl flags) int {
	// Service workloads run forever: stretch every instance and re-bind
	// on completion so the chip never idles out.
	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e15
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	d, err := daemon.AttachOpts(chip, models, nil, daemon.Options{
		HistoryCap: fl.ring,
		Retry:      daemon.Retry{Attempts: 4, Backoff: 100 * time.Microsecond},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	d.Policy = servePolicy(policy, models, fl.capW, d.Counters())
	if fl.vf != 0 {
		if err := chip.SetAllPStates(arch.VFState(fl.vf)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if fl.faultMSR > 0 || fl.faultHwmon > 0 {
		d.InjectFaults(fl.faultMSR, fl.faultHwmon, 1)
		log.Printf("ppepd: fault injection on (msr=%.0f%%, hwmon=%.0f%%)",
			100*fl.faultMSR, 100*fl.faultHwmon)
	}
	if fl.pace > 0 {
		d.Throttle = func() { time.Sleep(fl.pace) }
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.New(d, serve.Options{StaleAfter: staleAfter(fl.pace)})
	loopDone := make(chan error, 1)
	go func() { loopDone <- d.Run(ctx) }()
	log.Printf("ppepd: serving on %s (workload %s, policy %s, ring %d)", addr, run.Name, policy, fl.ring)

	err = srv.ListenAndServe(ctx, addr)
	stop() // a server failure must also stop the sampling loop
	if lerr := <-loopDone; lerr != nil && !isCanceled(lerr) {
		fmt.Fprintln(os.Stderr, "ppepd: sampling loop:", lerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppepd:", err)
		return 1
	}
	s := d.Counters().Snapshot()
	log.Printf("ppepd: clean shutdown after %d intervals (%d skipped, %d msr retries, %d hwmon retries)",
		s.Intervals, s.SkippedIntervals, s.MSRRetries, s.HwmonRetries)
	return 0
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

// servePolicy maps the -policy flag onto a daemon.Policy with rejection
// counting (surfaced at /metrics as ppep_policy_rejects_total).
func servePolicy(name string, models *core.Models, capW float64, counters *daemon.Counters) daemon.Policy {
	rl := newRateLimited(2 * time.Second)
	switch name {
	case "none":
		return nil
	case "energy":
		return daemon.PolicyFunc(func(ch *fxsim.Chip, iv trace.Interval, rep *core.Report) {
			applyAll(ch, dvfs.EnergyOptimal(rep), counters, rl)
		})
	case "edp":
		return daemon.PolicyFunc(func(ch *fxsim.Chip, iv trace.Interval, rep *core.Report) {
			applyAll(ch, dvfs.EDPOptimal(rep), counters, rl)
		})
	case "cap":
		capper := &dvfs.PPEPCapper{Models: models, Target: func(units.Seconds) units.Watts { return units.Watts(capW) }}
		return daemon.PolicyFunc(func(ch *fxsim.Chip, iv trace.Interval, rep *core.Report) {
			capper.Decide(ch, iv)
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", name)
		os.Exit(2)
		return nil
	}
}
