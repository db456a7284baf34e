package main

// fleet-mixed: the fleet engine in its real configuration — 64 nodes on
// the heterogeneous mix, PPEP models on, noisy sensors, one worker per
// CPU — advanced interval after interval. Host time goes to the fxsim
// jittered tick, then core.AnalyzeInto, then the fleet pool and publish.
// It never touches daemon, serve or simcache.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fleet"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/units"
	"ppep/internal/workload"
)

const (
	fleetNodes = 64
	// fleetEngines is how many 64-node fleets a run advances in turn,
	// each with its own seed drawn from the run seed. A fleet's cost
	// depends on the thread counts and VF states its nodes drew; four
	// fleets average 256 node identities, so the figures move less
	// from one seed to the next.
	fleetEngines = 4
	// fleetCheckIntervals is how many leading intervals the accuracy
	// figure and the invariance rerun cover. It is fixed, not
	// time-bound, so both repeat exactly for a seed on any host.
	fleetCheckIntervals = 20
	// fleetRefNodes is the size of the serial invariance rerun.
	fleetRefNodes = 8
	// setupReps is how often a run sets up its stack; setup_s is the
	// median.
	setupReps = 7
	// probeChips and probeRounds size the traced run's stage probe.
	probeChips  = 8
	probeRounds = 25
)

// mixedPrograms mirrors the SPEC rotation of fleet.MixMixed, which the
// stage probe reproduces from public fxsim and workload calls.
var mixedPrograms = []string{"458", "416", "456", "401", "483", "433", "429", "470"}

func fleetConfig(seed int64, models *core.Models, nodes, workers, shard int) fleet.Config {
	return fleet.Config{
		Nodes: nodes, Workers: workers, ShardNodes: shard, Seed: seed,
		Mix: fleet.MixMixed, Models: models, IdealSensor: false,
	}
}

// fleetRun is one of the run's engines and what its checks track.
type fleetRun struct {
	eng  *fleet.Engine
	seed int64
	prev *fleet.Snapshot
	n    uint64   // intervals advanced
	fps  []uint64 // leading fingerprints after fleetCheckIntervals
}

// fleetSeed derives engine k's seed from the run seed. The fleet
// treats seed 0 as 42, so 0 is never returned.
func fleetSeed(seed int64, k int) int64 {
	rng := stream(seed, 0x666c656574+uint64(k)) // "fleet"+k
	if s := int64(rng.next() >> 1); s != 0 {
		return s
	}
	return 1
}

func runFleet(r *run) error {
	var setups, slims []float64
	var models *core.Models
	fleets := make([]*fleetRun, fleetEngines)
	for k := range fleets {
		fleets[k] = &fleetRun{seed: fleetSeed(r.seed, k)}
	}
	// Set-up is training the models and building one engine.
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		m, err := fleet.SlimModels()
		if err != nil {
			return err
		}
		slims = append(slims, time.Since(t0).Seconds())
		e, err := fleet.New(fleetConfig(fleets[0].seed, m, fleetNodes, r.nproc, 0))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fleets[0].eng, models = e, m
	}
	r.set("setup_s", median(setups))
	r.set("fleet.slim_models_s", median(slims))
	for _, f := range fleets {
		if f.eng == nil {
			e, err := fleet.New(fleetConfig(f.seed, models, fleetNodes, r.nproc, 0))
			if err != nil {
				return err
			}
			f.eng = e
		}
		if f.eng.Workers() != r.nproc {
			r.op(fmt.Errorf("fleet: %d workers, want nproc=%d", f.eng.Workers(), r.nproc))
		}
		f.prev = f.eng.Snapshot()
	}

	var adv, plain, traced []float64 // ms per Advance; the same split by whether spanned
	var errSum float64
	var errN int
	deadline := time.Now().Add(r.seconds)
	for i := 0; fleets[fleetEngines-1].n <= fleetCheckIntervals || time.Now().Before(deadline); i++ {
		f := fleets[i%fleetEngines]
		// A traced run spans every other round of Advances, so the
		// untraced rounds give the tracing overhead in the same run.
		spanned := r.tr != nil && (i/fleetEngines)%2 == 0
		id := -1
		if spanned {
			id = r.tr.begin("fleet.advance", -1, 0)
		}
		t0 := time.Now()
		f.eng.Advance()
		dt := time.Since(t0)
		r.tr.end(id)
		f.n++
		adv = append(adv, ms(dt))
		if spanned {
			traced = append(traced, ms(dt))
		} else {
			plain = append(plain, ms(dt))
		}

		s := f.eng.Snapshot()
		err := checkSnapshot(s, f.n, fleetNodes)
		if err == nil && f.n >= 2 && f.n <= fleetCheckIntervals+1 {
			sum, cnt := nextIntervalErr(f.prev, s)
			errSum += sum
			errN += cnt
		}
		if err == nil && f.n == fleetCheckIntervals {
			f.fps = make([]uint64, fleetRefNodes)
			for j := range f.fps {
				f.fps[j] = s.Nodes[j].Fingerprint
				if f.eng.Fingerprint(j) != f.fps[j] {
					err = fmt.Errorf("fleet: node %d snapshot fingerprint %#x, engine %#x", j, f.fps[j], f.eng.Fingerprint(j))
				}
			}
		}
		r.op(err)
		f.prev = s
	}

	// Node identity depends only on (mix, seed, index): a serial rerun
	// of each engine's first nodes must reproduce their fingerprints.
	for _, f := range fleets {
		ref, err := fleet.New(fleetConfig(f.seed, models, fleetRefNodes, 1, 1))
		if err != nil {
			return err
		}
		ref.AdvanceN(fleetCheckIntervals)
		refFPs := make([]uint64, fleetRefNodes)
		for j := range refFPs {
			refFPs[j] = ref.Fingerprint(j)
		}
		r.op(checkInvariance(f.fps, refFPs))
	}

	p50 := median(adv)
	r.set("ops_per_s", fleetNodes/(p50/1000))
	r.set("produce_p50_ms", p50)
	r.set("produce_p90_ms", quantile(adv, 0.9))
	// A fleet consumer sees a fresh answer exactly once per Advance:
	// Snapshot itself is one atomic load.
	r.set("answer_p50_ms", p50)
	r.set("answer_p90_ms", quantile(adv, 0.9))
	if errN > 0 {
		r.set("pred_err_pct", 100*errSum/float64(errN))
	}

	if r.tr != nil {
		r.set("fleet.advance_ms", p50)
		r.set("trace.overhead_pct", 100*(median(traced)-median(plain))/median(plain))
		stageUS, err := probeStages(r, models)
		if err != nil {
			return err
		}
		r.set("fleet.parallel_efficiency", stageUS*fleetNodes/(p50*1000*float64(r.nproc)))
	}
	return nil
}

// checkSnapshot verifies one published snapshot after Advance number
// seq: sequence and per-node interval counts, every node analyzed
// without error, every predicted watt finite and non-negative, and the
// fleet totals equal to node-order sums bit for bit.
func checkSnapshot(s *fleet.Snapshot, seq uint64, nodes int) error {
	if s.Seq != seq {
		return fmt.Errorf("fleet: snapshot seq %d after %d intervals", s.Seq, seq)
	}
	if len(s.Nodes) != nodes || s.AnalyzedNodes != nodes {
		return fmt.Errorf("fleet: seq %d: %d rows, %d analyzed, want %d", seq, len(s.Nodes), s.AnalyzedNodes, nodes)
	}
	var meas, truth float64
	var busy int
	var pred [fleet.MaxVFStates]units.Watts
	for i := range s.Nodes {
		row := &s.Nodes[i]
		if row.Node != i || row.Intervals != seq || row.AnalyzeErrs != 0 || !row.Analyzed {
			return fmt.Errorf("fleet: seq %d node %d: id %d intervals %d analyze errors %d analyzed %v",
				seq, i, row.Node, row.Intervals, row.AnalyzeErrs, row.Analyzed)
		}
		if !(row.TruePowerW > 0) || math.IsInf(row.TruePowerW, 0) {
			return fmt.Errorf("fleet: seq %d node %d: true power %v", seq, i, row.TruePowerW)
		}
		for v := 0; v < s.NVF; v++ {
			if !finiteNonNeg(float64(row.PredChipW[v])) {
				return fmt.Errorf("fleet: seq %d node %d: predicted VF%d power %v", seq, i, v+1, row.PredChipW[v])
			}
			pred[v] += row.PredChipW[v]
		}
		meas += row.MeasPowerW
		truth += row.TruePowerW
		busy += row.BusyCores
	}
	if meas != s.TotalMeasW || truth != s.TotalTrueW || busy != s.BusyCores || pred != s.TotalPredW {
		return fmt.Errorf("fleet: seq %d: totals differ from node-order sums", seq)
	}
	return nil
}

// nextIntervalErr sums, over nodes, |power predicted in prev for the
// node's VF − true power in cur| / true power.
func nextIntervalErr(prev, cur *fleet.Snapshot) (sum float64, n int) {
	for i := range cur.Nodes {
		row := &cur.Nodes[i]
		p := float64(prev.Nodes[i].PredChipW[int(row.VF)-1])
		sum += math.Abs(p-row.TruePowerW) / row.TruePowerW
		n++
	}
	return sum, n
}

// checkInvariance compares the main fleet's leading fingerprints with
// the serial rerun's.
func checkInvariance(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("fleet: %d fingerprints recorded, rerun has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("fleet: node %d fingerprint %#x, serial rerun %#x", i, got[i], want[i])
		}
	}
	return nil
}

// probeStages times the fleet's per-node stages, which are private to
// Engine.Advance, on standalone chips built like fleet.MixMixed nodes:
// TickN → ReadIntervalInto → Fold → AnalyzeInto → PredictionTable. It
// returns the median per-node time of the stages Advance runs, in µs.
func probeStages(r *run, models *core.Models) (float64, error) {
	rng := stream(r.seed, 0x70726f6265) // "probe"
	chips := make([]*fxsim.Chip, probeChips)
	for i := range chips {
		cfg := fxsim.DefaultFX8320Config()
		cfg.SensorSeed = int64(rng.next() >> 1)
		c := fxsim.New(cfg)
		b := *workload.SPECByNumber(mixedPrograms[i%len(mixedPrograms)])
		b.Instructions = 1e18 // time-bound, like fleet nodes
		if err := c.SetAllPStates(arch.VFState(3 + rng.intn(3))); err != nil {
			return 0, err
		}
		c.SetTempK(units.Kelvin(305 + 12*rng.unit()))
		threads := 4 + rng.intn(5)
		for k := 0; k < threads; k++ {
			if err := c.Bind(k, &b, true); err != nil {
				return 0, err
			}
		}
		chips[i] = c
	}
	ivs := make([]trace.Interval, probeChips)
	reps := make([]core.Report, probeChips)
	fp := uint64(trace.FingerprintSeed)
	t := r.tr
	for round := 1; round <= probeRounds; round++ {
		for i, c := range chips {
			iv, rep := &ivs[i], &reps[i]
			node := t.begin("probe.node", -1, 0)
			t.timed("fxsim.tickn", node, func() { c.TickN(arch.DecisionIntervalMS) })
			t.timed("fxsim.read_interval", node, func() { c.ReadIntervalInto(iv) })
			t.timed("trace.fold", node, func() { fp = iv.Fold(fp) })
			var err error
			t.timed("core.analyze_into", node, func() { err = models.AnalyzeInto(*iv, rep) })
			if err == nil {
				t.timed("core.prediction_table", node, func() { models.PredictionTable(uint64(round), *iv, rep) })
			}
			t.end(node)
			r.op(err)
		}
	}
	var fast, ref uint64
	for _, c := range chips {
		st := c.EngineStats()
		fast += st.FastTicks
		ref += st.ReferenceTicks
	}
	if fast+ref == 0 {
		return 0, errors.New("fleet probe: no ticks recorded")
	}
	r.set("fxsim.fast_tick_share", float64(fast)/float64(fast+ref))

	st := t.stats()
	stage := 0.0
	for name, m := range map[string]string{
		"fxsim.tickn":           "fxsim.tickn_us",
		"fxsim.read_interval":   "fxsim.read_interval_us",
		"trace.fold":            "trace.fold_us",
		"core.analyze_into":     "core.analyze_into_us",
		"core.prediction_table": "core.prediction_table_us",
	} {
		v := st.p50(name, false)
		r.set(m, v)
		if name != "core.prediction_table" {
			stage += v
		}
	}
	return stage, nil
}
