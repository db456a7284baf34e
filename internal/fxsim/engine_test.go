package fxsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// The tests here pin the batched engine's core contract: for any sequence
// of chip operations, the fast path and the reference path produce
// bit-identical interval sequences and final chip state. Test files are
// outside the determinism lint's scope, so the fuzz harness may use a
// seeded math/rand directly.

// longSteady returns a BenchSteady clone too long to finish in a test.
func longSteady() *workload.Benchmark {
	b := *workload.BenchSteady()
	b.Instructions = 1e18
	return &b
}

// shortSteady returns a BenchSteady clone that finishes after roughly
// 300 ticks at the top state, so completions land mid-run.
func shortSteady() *workload.Benchmark {
	b := *workload.BenchSteady()
	b.Instructions = 2e9
	return &b
}

// steadyPhased is a zero-noise multi-phase looping benchmark: phase
// boundaries and the final completion land inside quiescent runs, so the
// engine's lookahead bound and guard logic are exercised for real.
func steadyPhased() *workload.Benchmark {
	return &workload.Benchmark{
		Name:         "steady_phased",
		Suite:        "micro",
		Class:        workload.Balanced,
		Instructions: 4e9,
		Loops:        3,
		Phases: []workload.Phase{
			{
				Name: "a", Weight: 0.5, BaseCPI: 0.6,
				PerInst: workload.Rates{Uops: 1.2, ICFetch: 0.25, DCAccess: 0.40, L2Req: 0.010, Branch: 0.10, Mispred: 0.0010},
				MLP:     1,
			},
			{
				Name: "b", Weight: 0.5, BaseCPI: 1.1,
				PerInst: workload.Rates{Uops: 1.4, ICFetch: 0.30, DCAccess: 0.45, L2Req: 0.020, Branch: 0.15, Mispred: 0.0020, L2Miss: 0.001},
				MLP:     1.1,
			},
		},
	}
}

// steadyDRAM is zero-noise but DRAM-active: the utilization EMA keeps
// moving, so the engine must refuse to seal (or seal only at an exact
// floating-point fixed point) — either way the output must not budge.
func steadyDRAM() *workload.Benchmark {
	return &workload.Benchmark{
		Name:         "steady_dram",
		Suite:        "micro",
		Class:        workload.MemBound,
		Instructions: 1e18,
		Phases: []workload.Phase{{
			Name: "stream", Weight: 1, BaseCPI: 0.9,
			PerInst:     workload.Rates{Uops: 1.3, ICFetch: 0.25, DCAccess: 0.50, L2Req: 0.030, Branch: 0.08, Mispred: 0.0015, L2Miss: 0.0080},
			L3MissRatio: 0.6,
			MLP:         2,
		}},
	}
}

// checkEquivalent drives the same operation sequence through a
// reference-pinned chip and a batched-engine chip and requires identical
// intervals and final observable state.
func checkEquivalent(t *testing.T, cfg Config, drive func(c *Chip) []trace.Interval) EngineStats {
	t.Helper()
	rc := cfg
	rc.ReferenceTick = true
	fc := cfg
	fc.ReferenceTick = false
	ref, fast := New(rc), New(fc)

	rIvs := drive(ref)
	fIvs := drive(fast)
	if len(rIvs) != len(fIvs) {
		t.Fatalf("interval count: reference %d, fast %d", len(rIvs), len(fIvs))
	}
	for i := range rIvs {
		if !reflect.DeepEqual(rIvs[i], fIvs[i]) {
			t.Fatalf("interval %d diverged:\nreference: %+v\nfast:      %+v", i, rIvs[i], fIvs[i])
		}
	}
	if ref.TimeS() != fast.TimeS() {
		t.Fatalf("TimeS diverged: reference %v, fast %v", ref.TimeS(), fast.TimeS())
	}
	if ref.TempK() != fast.TempK() {
		t.Fatalf("TempK diverged: reference %v, fast %v", ref.TempK(), fast.TempK())
	}
	if st := ref.EngineStats(); st.FastTicks != 0 || st.Probes != 0 {
		t.Fatalf("reference chip ran the fast engine: %+v", st)
	}
	return fast.EngineStats()
}

// bindAll binds n threads of b starting at core 0.
func bindAll(t testing.TB, c *Chip, b *workload.Benchmark, n int, restart bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Bind(i, b, restart); err != nil {
			t.Fatal(err)
		}
	}
}

// intervals advances n decision intervals, reading each.
func intervals(c *Chip, n int) []trace.Interval {
	out := make([]trace.Interval, 0, n)
	for i := 0; i < n; i++ {
		c.TickN(arch.DecisionIntervalMS)
		out = append(out, c.ReadInterval())
	}
	return out
}

func TestEngineEquivalence(t *testing.T) {
	long := longSteady()
	short := shortSteady()
	phased := steadyPhased()
	dram := steadyDRAM()

	ideal := func(mut func(*Config)) Config {
		cfg := DefaultFX8320Config()
		cfg.IdealSensor = true
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}

	t.Run("steady-saturated", func(t *testing.T) {
		st := checkEquivalent(t, ideal(nil), func(c *Chip) []trace.Interval {
			bindAll(t, c, long, c.Topology().NumCores(), false)
			return intervals(c, 10)
		})
		if st.FastTicks < 1500 {
			t.Errorf("fast path barely engaged on the canonical steady workload: %+v", st)
		}
	})

	t.Run("noisy-sensor", func(t *testing.T) {
		cfg := DefaultFX8320Config()
		cfg.SensorSeed = 5
		st := checkEquivalent(t, cfg, func(c *Chip) []trace.Interval {
			bindAll(t, c, long, 4, false)
			return intervals(c, 6)
		})
		if st.FastTicks == 0 {
			t.Errorf("fast path never engaged: %+v", st)
		}
	})

	t.Run("finish-and-restart", func(t *testing.T) {
		st := checkEquivalent(t, ideal(nil), func(c *Chip) []trace.Interval {
			bindAll(t, c, short, 4, false)
			if err := c.Bind(6, short, true); err != nil {
				t.Fatal(err)
			}
			if err := c.Bind(7, short, true); err != nil {
				t.Fatal(err)
			}
			return intervals(c, 5)
		})
		if st.FastTicks == 0 {
			t.Errorf("fast path never engaged: %+v", st)
		}
	})

	t.Run("phase-crossings", func(t *testing.T) {
		st := checkEquivalent(t, ideal(nil), func(c *Chip) []trace.Interval {
			bindAll(t, c, phased, c.Topology().NumCores(), false)
			if err := c.SetAllPStates(arch.VF3); err != nil {
				t.Fatal(err)
			}
			return intervals(c, 8)
		})
		if st.FastTicks == 0 {
			t.Errorf("fast path never engaged: %+v", st)
		}
	})

	t.Run("pg-idle-and-exit", func(t *testing.T) {
		st := checkEquivalent(t, ideal(func(cfg *Config) { cfg.PowerGating = true }), func(c *Chip) []trace.Interval {
			out := intervals(c, 2) // fully gated
			bindAll(t, c, long, 2, false)
			out = append(out, intervals(c, 2)...)
			c.UnbindAll()
			return append(out, intervals(c, 2)...)
		})
		if st.FastTicks == 0 {
			t.Errorf("fast path never engaged while gated idle: %+v", st)
		}
	})

	t.Run("mutators-mid-interval", func(t *testing.T) {
		checkEquivalent(t, ideal(func(cfg *Config) { cfg.PerCUPlanes = true }), func(c *Chip) []trace.Interval {
			bindAll(t, c, long, 3, false)
			var out []trace.Interval
			c.TickN(137)
			if err := c.SetPState(0, arch.VF2); err != nil {
				t.Fatal(err)
			}
			c.TickN(63)
			out = append(out, c.ReadInterval())
			c.SetNBPoint(arch.VFPoint{Voltage: 1.0875, Freq: 1.8})
			c.TickN(200)
			out = append(out, c.ReadInterval())
			c.SetTempK(330)
			c.TickN(200)
			return append(out, c.ReadInterval())
		})
	})

	t.Run("dram-feedback", func(t *testing.T) {
		checkEquivalent(t, ideal(nil), func(c *Chip) []trace.Interval {
			bindAll(t, c, dram, c.Topology().NumCores(), false)
			return intervals(c, 5)
		})
	})

	t.Run("boost-never-fast", func(t *testing.T) {
		st := checkEquivalent(t, ideal(func(cfg *Config) { cfg.BoostEnabled = true }), func(c *Chip) []trace.Interval {
			bindAll(t, c, long, 2, false)
			return intervals(c, 4)
		})
		if st.FastTicks != 0 || st.Probes != 0 {
			t.Errorf("boost-enabled chip must stay on the reference path: %+v", st)
		}
	})

	t.Run("mux-disabled", func(t *testing.T) {
		checkEquivalent(t, ideal(func(cfg *Config) { cfg.MuxDisabled = true }), func(c *Chip) []trace.Interval {
			bindAll(t, c, long, 5, false)
			return intervals(c, 4)
		})
	})
}

// TestEngineFuzz drives randomized operation schedules — random
// configurations, benchmarks with and without jitter, loops and short
// instruction counts so finishes and phase wraps land mid-run, mutators
// at arbitrary tick offsets — through both engines and requires identical
// output. The schedule is generated once per seed and applied to both
// chips verbatim.
func TestEngineFuzz(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))

		cfg := DefaultFX8320Config()
		cfg.PowerGating = rng.Float64() < 0.3
		cfg.PerCUPlanes = rng.Float64() < 0.3
		cfg.MuxDisabled = rng.Float64() < 0.2
		cfg.IdealSensor = rng.Float64() < 0.5
		cfg.BoostEnabled = rng.Float64() < 0.15
		cfg.SensorSeed = seed

		benches := make([]*workload.Benchmark, 1+rng.Intn(3))
		for bi := range benches {
			nPhases := 1 + rng.Intn(3)
			phases := make([]workload.Phase, nPhases)
			w := 0.0
			for pi := range phases {
				branch := 0.05 + 0.2*rng.Float64()
				l2req := 0.03 * rng.Float64()
				noise := 0.0
				if rng.Float64() < 0.5 {
					noise = 0.05 * rng.Float64()
				}
				l3miss := 0.0
				if rng.Float64() < 0.5 {
					l3miss = rng.Float64()
				}
				phases[pi] = workload.Phase{
					Name:    "p",
					Weight:  0.2 + rng.Float64(),
					BaseCPI: 0.3 + 1.5*rng.Float64(),
					PerInst: workload.Rates{
						Uops:     1 + rng.Float64(),
						FPU:      0.2 * rng.Float64(),
						ICFetch:  0.1 + 0.3*rng.Float64(),
						DCAccess: 0.2 + 0.4*rng.Float64(),
						L2Req:    l2req,
						Branch:   branch,
						Mispred:  branch * 0.02 * rng.Float64(),
						L2Miss:   l2req * rng.Float64(),
						Prefetch: 0.01 * rng.Float64(),
						TLBWalk:  0.005 * rng.Float64(),
					},
					L3MissRatio: l3miss,
					MLP:         1 + 2*rng.Float64(),
					Noise:       noise,
				}
				w += phases[pi].Weight
			}
			for pi := range phases {
				phases[pi].Weight /= w
			}
			benches[bi] = &workload.Benchmark{
				Name:         "fuzz",
				Suite:        "micro",
				Class:        workload.Balanced,
				Instructions: math.Pow(10, 8+2.5*rng.Float64()),
				Loops:        1 + rng.Intn(4),
				Phases:       phases,
			}
		}

		vf := []arch.VFState{arch.VF1, arch.VF2, arch.VF3, arch.VF4, arch.VF5}
		nbPts := []arch.VFPoint{
			{Voltage: 1.175, Freq: 2.2},
			{Voltage: 1.0875, Freq: 1.8},
		}
		nCores := cfg.Topology.NumCores()
		nCUs := cfg.Topology.NumCUs
		var ops []func(c *Chip, out *[]trace.Interval)
		for o := 0; o < 40; o++ {
			switch p := rng.Float64(); {
			case p < 0.50:
				n := 1 + rng.Intn(300)
				ops = append(ops, func(c *Chip, out *[]trace.Interval) { c.TickN(n) })
			case p < 0.65:
				ops = append(ops, func(c *Chip, out *[]trace.Interval) { *out = append(*out, c.ReadInterval()) })
			case p < 0.80:
				core := rng.Intn(nCores)
				b := benches[rng.Intn(len(benches))]
				restart := rng.Float64() < 0.3
				ops = append(ops, func(c *Chip, out *[]trace.Interval) {
					// Binding a busy core fails identically on both chips.
					_ = c.Bind(core, b, restart)
				})
			case p < 0.88:
				core := rng.Intn(nCores)
				ops = append(ops, func(c *Chip, out *[]trace.Interval) { c.Unbind(core) })
			case p < 0.95:
				cu := rng.Intn(nCUs)
				s := vf[rng.Intn(len(vf))]
				ops = append(ops, func(c *Chip, out *[]trace.Interval) {
					if err := c.SetPState(cu, s); err != nil {
						t.Fatal(err)
					}
				})
			case p < 0.97:
				pt := nbPts[rng.Intn(len(nbPts))]
				ops = append(ops, func(c *Chip, out *[]trace.Interval) { c.SetNBPoint(pt) })
			default:
				tk := units.Kelvin(300 + 40*rng.Float64())
				ops = append(ops, func(c *Chip, out *[]trace.Interval) { c.SetTempK(tk) })
			}
		}

		drive := func(c *Chip) []trace.Interval {
			var out []trace.Interval
			for _, op := range ops {
				op(c, &out)
			}
			out = append(out, c.ReadInterval())
			return out
		}

		rc := cfg
		rc.ReferenceTick = true
		ref, fast := New(rc), New(cfg)
		rIvs := drive(ref)
		fIvs := drive(fast)
		if len(rIvs) != len(fIvs) {
			t.Fatalf("seed %d: interval count %d vs %d", seed, len(rIvs), len(fIvs))
		}
		for i := range rIvs {
			if !reflect.DeepEqual(rIvs[i], fIvs[i]) {
				t.Errorf("seed %d: interval %d diverged:\nreference: %+v\nfast:      %+v", seed, i, rIvs[i], fIvs[i])
				break
			}
		}
		if ref.TimeS() != fast.TimeS() || ref.TempK() != fast.TempK() {
			t.Errorf("seed %d: final state diverged: TimeS %v vs %v, TempK %v vs %v",
				seed, ref.TimeS(), fast.TimeS(), ref.TempK(), fast.TempK())
		}
	}
}

// steadyChip mirrors busyChip with the zero-noise workload, so the
// batched engine can seal a quiescent run.
func steadyChip(t testing.TB) *Chip {
	t.Helper()
	cfg := DefaultFX8320Config()
	cfg.IdealSensor = true
	c := New(cfg)
	long := longSteady()
	for i := 0; i < cfg.Topology.NumCores(); i++ {
		if err := c.Bind(i, long, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetAllPStates(arch.VF5); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFastTickZeroAlloc pins the fast path's allocation-free guarantee,
// mirroring TestTickZeroAlloc for the reference path.
func TestFastTickZeroAlloc(t *testing.T) {
	t.Run("busy", func(t *testing.T) {
		c := steadyChip(t)
		c.TickN(64)
		if st := c.EngineStats(); st.FastTicks == 0 {
			t.Fatalf("engine never sealed a run on the steady workload: %+v", st)
		}
		if n := testing.AllocsPerRun(200, func() { c.TickN(20) }); n != 0 {
			t.Errorf("fast TickN allocates %.1f times per call, want 0", n)
		}
	})
	t.Run("idle", func(t *testing.T) {
		cfg := DefaultFX8320Config()
		cfg.IdealSensor = true
		c := New(cfg)
		c.TickN(64)
		if st := c.EngineStats(); st.FastTicks == 0 {
			t.Fatalf("engine never sealed the idle run: %+v", st)
		}
		if n := testing.AllocsPerRun(200, func() { c.TickN(20) }); n != 0 {
			t.Errorf("idle fast TickN allocates %.1f times per call, want 0", n)
		}
	})
}
