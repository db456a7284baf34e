package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"ppep/internal/arch"
	"ppep/internal/fleet"
	"ppep/internal/workload"
)

// goodFlags is a baseline that must validate.
func goodFlags() flags {
	return flags{vf: 5, seconds: 10, scale: 0.05, capW: 70,
		ring: 512, pace: 200 * time.Millisecond}
}

func TestFlagValidation(t *testing.T) {
	if err := goodFlags().validate(arch.FX8320VFTable); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*flags)
		want string // substring of the usage error
	}{
		{"vf too low", func(f *flags) { f.vf = 0 }, "-vf"},
		{"vf too high", func(f *flags) { f.vf = 6 }, "1..5"},
		{"vf negative", func(f *flags) { f.vf = -3 }, "-vf"},
		{"zero seconds", func(f *flags) { f.seconds = 0 }, "-seconds"},
		{"negative seconds", func(f *flags) { f.seconds = -1 }, "-seconds"},
		{"zero scale", func(f *flags) { f.scale = 0 }, "-scale"},
		{"negative scale", func(f *flags) { f.scale = -0.1 }, "-scale"},
		{"zero cap", func(f *flags) { f.capW = 0 }, "-cap"},
		{"negative ring", func(f *flags) { f.ring = -1 }, "-ring"},
		{"negative pace", func(f *flags) { f.pace = -time.Second }, "-pace"},
		{"msr rate 1", func(f *flags) { f.faultMSR = 1 }, "-fault-msr"},
		{"msr rate negative", func(f *flags) { f.faultMSR = -0.1 }, "-fault-msr"},
		{"hwmon rate 1.5", func(f *flags) { f.faultHwmon = 1.5 }, "-fault-hwmon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodFlags()
			tc.mut(&f)
			err := f.validate(arch.FX8320VFTable)
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending flag %q", err, tc.want)
			}
		})
	}

	// Boundary values that must be accepted.
	f := goodFlags()
	f.vf, f.ring, f.pace = 1, 0, 0
	f.faultMSR, f.faultHwmon = 0.99, 0
	if err := f.validate(arch.FX8320VFTable); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
}

// TestBatchRun drives batch mode end to end on slim models: -seconds 2
// completes exactly round(2 / 0.2) = 10 intervals through the daemon
// loop, prints the live report every fifth interval, analyzes every
// interval cleanly, and under -policy energy moves the chip off VF5. A
// report that cannot be written stops the run.
func TestBatchRun(t *testing.T) {
	models, err := fleet.SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("write error", func(t *testing.T) {
		run, err := workload.ParseRunSpec("433x2")
		if err != nil {
			t.Fatal(err)
		}
		d, err := attach(models, run, "none", goodFlags())
		if err != nil {
			t.Fatal(err)
		}
		if err := runBatch(failWriter{}, d, 10); !errors.Is(err, errClosed) {
			t.Errorf("runBatch returned %v, want the write error", err)
		}
		if n := d.Counters().Intervals.Load(); n != 1 {
			t.Errorf("%d intervals after the first report failed to print, want 1", n)
		}
	})
	for _, policy := range []string{"none", "energy", "edp", "cap"} {
		t.Run(policy, func(t *testing.T) {
			run, err := workload.ParseRunSpec("433x2")
			if err != nil {
				t.Fatal(err)
			}
			fl := goodFlags()
			fl.seconds = 2
			d, err := attach(models, run, policy, fl)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := runBatch(&out, d, fl.intervals()); err != nil {
				t.Fatal(err)
			}

			s := d.Counters().Snapshot()
			if s.Intervals != 10 {
				t.Errorf("%d intervals completed, want 10", s.Intervals)
			}
			if s.AnalyzeErrors != 0 || s.SkippedIntervals != 0 {
				t.Errorf("%d analyze errors, %d skipped intervals, want none", s.AnalyzeErrors, s.SkippedIntervals)
			}
			recs := d.Records()
			if len(recs) != 10 {
				t.Fatalf("%d records retained, want 10", len(recs))
			}
			if got := strings.Count(out.String(), "t="); got != 2 {
				t.Errorf("%d interval reports printed for 10 intervals, want 2 (every fifth):\n%s", got, out.String())
			}

			left := false
			for _, rec := range recs {
				left = left || rec.Interval.VF() != 5
			}
			if policy == "energy" && !left {
				t.Error("energy policy never moved the chip off VF5")
			}
			if policy == "none" && left {
				t.Error("no policy, yet the chip left VF5")
			}
		})
	}
}

var errClosed = errors.New("closed")

// failWriter is a stdout whose reader went away.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errClosed }
