package main

// campaign-cache: the Section IV measurement campaign at a reduced size,
// run cold into a fresh trace-cache directory and then replayed warm
// from it. The cold pass simulates and writes every cell, the warm pass
// decodes them, both through simcache and tracecodec; both train the
// models on the full campaign over the experiments worker pool. It is
// the only workload that touches the cache.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ppep/internal/core"
	"ppep/internal/experiments"
	"ppep/internal/simcache"
	"ppep/internal/trace"
	"ppep/internal/tracecodec"
)

const (
	campaignMaxRuns = 3
	// campaignScale is the centre of the instruction-count scale band.
	// The campaign seeds its simulations from run names, so the run
	// seed picks the scale within ±2% instead: every trace and cache
	// key changes while the work stays within ±2%.
	campaignScale = 0.02
	// warmPerCold is how many warm replays follow each cold pass.
	warmPerCold = 10
	// trainReps is how often set-up trains the models. On a 2-vCPU
	// Xeon VM single trainings fall into two modes, near 3.3 and
	// 5.2 ms, in shares that vary from run to run, so a median jumps
	// between the modes; set-up is the mean over many.
	trainReps = 101
	// codecSweeps is how often the traced run decodes and re-encodes
	// the whole cache.
	codecSweeps = 3
)

func campaignScaleFor(seed int64) float64 {
	rng := stream(seed, 0x7363616c65) // "scale"
	return campaignScale * (0.98 + 0.04*rng.unit())
}

// saveModels is the byte form two model sets are compared in.
func saveModels(m *core.Models) ([]byte, error) {
	var b bytes.Buffer
	err := m.Save(&b)
	return b.Bytes(), err
}

// checkCold verifies a cold pass into an empty directory: it simulated
// something and found nothing to read.
func checkCold(st simcache.Stats) error {
	if st.Misses == 0 || st.Hits != 0 || st.Corrupt != 0 || st.WriteErrors != 0 {
		return fmt.Errorf("campaign: cold pass stats %v", st)
	}
	return nil
}

// checkWarm verifies a warm replay against its cold pass: every cell
// the cold pass computed is decoded from disk, none simulated or
// corrupt, and the models trained on the replay save to the same bytes.
func checkWarm(cold, warm simcache.Stats, coldModels, warmModels []byte) error {
	if warm.Misses != 0 || warm.Corrupt != 0 || warm.Hits != cold.Misses+cold.Coalesced {
		return fmt.Errorf("campaign: warm pass stats %v after cold %v", warm, cold)
	}
	if !bytes.Equal(coldModels, warmModels) {
		return fmt.Errorf("campaign: warm-trained models differ from cold-trained (%d vs %d bytes)", len(warmModels), len(coldModels))
	}
	return nil
}

// campaignErr is the models' next-interval chip-power error over the
// campaign's own run traces: the power predicted from interval k at the
// state interval k+1 ran at, against k+1's true power.
func campaignErr(c *experiments.Campaign) (sum float64, n int, err error) {
	var rep core.Report
	for _, rt := range c.Runs {
		ivs := rt.Trace.Intervals
		for k := 0; k+1 < len(ivs); k++ {
			if err := c.Models.AnalyzeInto(ivs[k], &rep); err != nil {
				return 0, 0, fmt.Errorf("campaign: %s VF%d interval %d: %w", rt.Name, rt.VF, k, err)
			}
			truth := ivs[k+1].TruePowerW
			sum += math.Abs(float64(rep.At(ivs[k+1].VF()).ChipW)-truth) / truth
			n++
		}
	}
	return sum, n, nil
}

func runCampaign(r *run) error {
	base, err := os.MkdirTemp(r.dir, "campaign-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	opts := experiments.Options{Scale: campaignScaleFor(r.seed), MaxRunsPerSuite: campaignMaxRuns, Workers: r.nproc}

	var cold, warm []float64 // ms per pass
	var plainWarm, tracedWarm []float64
	var first struct{ cold, warm simcache.Stats }
	var corrupt int64
	var lastDir string
	var lastWarm *experiments.Campaign
	deadline := time.Now().Add(r.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		opts.CacheDir = filepath.Join(base, fmt.Sprintf("pass%d", pass))
		span := r.tr.begin("experiments.cold_pass", -1, 0)
		t0 := time.Now()
		c, err := experiments.NewFXCampaign(opts)
		dt := time.Since(t0)
		r.tr.end(span)
		if err != nil {
			return err
		}
		cold = append(cold, ms(dt))
		cst, _ := c.CacheStats()
		corrupt += cst.Corrupt
		want, err := saveModels(c.Models)
		if err == nil {
			err = checkCold(cst)
		}
		r.op(err)

		if pass == 0 {
			// Set-up is training the models; time it on the first
			// campaign's training set.
			ts := core.TrainingSet{IdleTraces: c.Idle, Runs: c.Runs, PGSweeps: c.PGSweeps}
			t0 := time.Now()
			for i := 0; i < trainReps; i++ {
				if _, err := core.Train(ts, c.Table); err != nil {
					return err
				}
			}
			train := time.Since(t0).Seconds() / trainReps
			r.set("setup_s", train)
			r.set("core.train_ms", 1000*train)
		}

		for k := 0; k < warmPerCold; k++ {
			// A traced run spans every other replay, so the others give
			// the tracing overhead in the same run.
			spanned := r.tr != nil && k%2 == 1
			span := -1
			if spanned {
				span = r.tr.begin("experiments.warm_pass", -1, 0)
			}
			t0 := time.Now()
			w, err := experiments.NewFXCampaign(opts)
			dt := time.Since(t0)
			r.tr.end(span)
			if err != nil {
				return err
			}
			warm = append(warm, ms(dt))
			if spanned {
				tracedWarm = append(tracedWarm, ms(dt))
			} else {
				plainWarm = append(plainWarm, ms(dt))
			}
			wst, _ := w.CacheStats()
			corrupt += wst.Corrupt
			got, err := saveModels(w.Models)
			if err == nil {
				err = checkWarm(cst, wst, want, got)
			}
			r.op(err)
			if pass == 0 && k == 0 {
				first.cold, first.warm = cst, wst
			}
			lastWarm = w
		}
		if lastDir != "" {
			if err := os.RemoveAll(lastDir); err != nil {
				return err
			}
		}
		lastDir = opts.CacheDir
	}

	sum, n, err := campaignErr(lastWarm)
	r.op(err)
	r.set("ops_per_s", float64(first.cold.Misses)/(median(cold)/1000))
	r.set("produce_p50_ms", median(cold))
	r.set("produce_p90_ms", quantile(cold, 0.9))
	r.set("answer_p50_ms", median(warm))
	r.set("answer_p90_ms", quantile(warm, 0.9))
	if n > 0 {
		r.set("pred_err_pct", 100*sum/float64(n))
	}
	if r.tr == nil {
		return nil
	}

	r.set("simcache.hits", float64(first.warm.Hits))
	r.set("simcache.misses", float64(first.cold.Misses))
	if tot := first.warm.Hits + first.warm.Misses; tot > 0 {
		r.set("simcache.hit_rate", float64(first.warm.Hits)/float64(tot))
	}
	r.set("simcache.bytes_read", float64(first.warm.BytesRead))
	r.set("simcache.bytes_written", float64(first.cold.BytesWritten))
	r.set("simcache.corrupt", float64(corrupt))
	r.set("trace.overhead_pct", 100*(median(tracedWarm)-median(plainWarm))/median(plainWarm))
	dec, enc, err := codecTimes(r, lastDir)
	if err != nil {
		return err
	}
	r.set("tracecodec.decode_ms", dec)
	r.set("tracecodec.encode_ms", enc)
	return nil
}

// codecTimes decodes and re-encodes every cached trace in dir, a few
// times over, and returns the median total decode and encode time of
// one sweep in ms. Each re-encoding must reproduce the file's bytes.
func codecTimes(r *run, dir string) (decMS, encMS float64, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.pptc"))
	if err != nil || len(files) == 0 {
		return 0, 0, fmt.Errorf("campaign: no cached traces in %s (%v)", dir, err)
	}
	data := make([][]byte, len(files))
	for i, f := range files {
		if data[i], err = os.ReadFile(f); err != nil {
			return 0, 0, err
		}
	}
	var enc tracecodec.Encoder
	var decs, encs []float64
	for rep := 0; rep < codecSweeps; rep++ {
		sweep := r.tr.begin("tracecodec.sweep", -1, 0)
		var dec, en time.Duration
		for _, b := range data {
			var tr *trace.Trace
			var derr error
			t0 := time.Now()
			r.tr.timed("tracecodec.decode", sweep, func() { tr, derr = tracecodec.Decode(b) })
			dec += time.Since(t0)
			if derr != nil {
				r.op(derr)
				continue
			}
			var out []byte
			var eerr error
			t0 = time.Now()
			r.tr.timed("tracecodec.encode", sweep, func() { out, eerr = enc.Encode(tr) })
			en += time.Since(t0)
			if eerr == nil && !bytes.Equal(out, b) {
				eerr = fmt.Errorf("tracecodec: re-encoding %s changed its bytes", tr.Run)
			}
			r.op(eerr)
		}
		r.tr.end(sweep)
		decs = append(decs, ms(dec))
		encs = append(encs, ms(en))
	}
	return median(decs), median(encs), nil
}
