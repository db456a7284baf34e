package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core/pgidle"
	"ppep/internal/trace"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m, ts := miniCampaign(t)
	// Attach a PG decomposition so that branch round-trips too.
	m2 := *m
	m2.PG = map[arch.VFState]pgidle.Decomposition{
		arch.VF5: {PidleCU: 6.5, PidleNB: 7.1, PidleBase: 2.2},
		arch.VF1: {PidleCU: 1.5, PidleNB: 6.0, PidleBase: 1.4},
	}
	m2.PGEnabled = true
	m2.Thermal = &ThermalFeedback{AmbientK: 301, RthKPerW: 0.12}

	var buf bytes.Buffer
	if err := m2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dyn.Alpha != m2.Dyn.Alpha || got.Dyn.VRef != m2.Dyn.VRef {
		t.Error("dynamic scalars differ")
	}
	if got.Dyn.W != m2.Dyn.W {
		t.Error("weights differ")
	}
	if len(got.Table) != len(m2.Table) || got.Table.Point(arch.VF5) != m2.Table.Point(arch.VF5) {
		t.Error("platform table differs")
	}
	if got.PG[arch.VF5] != m2.PG[arch.VF5] || got.PG[arch.VF1] != m2.PG[arch.VF1] {
		t.Error("PG decomposition differs")
	}
	if !got.PGEnabled {
		t.Error("PGEnabled lost")
	}
	if got.Thermal == nil || *got.Thermal != *m2.Thermal {
		t.Error("thermal feedback lost")
	}
	// The loaded models must produce identical analyses.
	iv := ts.Runs[0].Trace.Intervals[1]
	a, err := m2.Analyze(iv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Analyze(iv)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerVF {
		if math.Abs(float64(a.PerVF[i].ChipW-b.PerVF[i].ChipW)) > 1e-9 {
			t.Errorf("%v: loaded models predict %v, original %v",
				a.PerVF[i].VF, b.PerVF[i].ChipW, a.PerVF[i].ChipW)
		}
	}
}

func TestSaveUntrained(t *testing.T) {
	var m Models
	if err := m.Save(&bytes.Buffer{}); err == nil {
		t.Error("untrained save accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"bad version":     `{"version": 99}`,
		"no platform":     `{"version": 1, "platform": {"voltages": [], "freqs_ghz": []}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9]}}`,
		"ragged platform": `{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": []}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9]}}`,
		"bad weights":     `{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": [2.0]}, "dynamic": {"weights": [1,2]}}`,
		"bad pg state":    `{"version": 1, "platform": {"voltages": [1.0], "freqs_ghz": [2.0]}, "dynamic": {"weights": [1,2,3,4,5,6,7,8,9]}, "power_gating": [{"state": 7}]}`,
	}
	for name, body := range cases {
		if _, err := LoadModels(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestLoadRejectsBadValues starts from a trained model set's own Save
// output and breaks one field at a time: each must be rejected with an
// error naming what is wrong, while the unbroken file still loads
// bit-identically (Save → Load → Save gives the same bytes and the same
// models). The first case is the model file that used to load and
// predict negative chip power: vref 0 and an empty idle w1.
func TestLoadRejectsBadValues(t *testing.T) {
	m, _ := miniCampaign(t)
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModels(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatalf("trained model set rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Table, m.Table) || !reflect.DeepEqual(got.Idle, m.Idle) || !reflect.DeepEqual(got.Dyn, m.Dyn) {
		t.Error("loaded models differ from the saved ones")
	}
	var resaved bytes.Buffer
	if err := got.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Error("Save -> Load -> Save changed the bytes")
	}

	cases := []struct {
		name   string
		mutate func(*modelsJSON)
		want   string
	}{
		{"zero vref, empty w1", func(in *modelsJSON) { in.Dyn.VRef = 0; in.Idle.W1 = nil }, "vref"},
		{"negative vref", func(in *modelsJSON) { in.Dyn.VRef = -1.2 }, "vref"},
		{"empty w1", func(in *modelsJSON) { in.Idle.W1 = []float64{} }, "w1 and w0"},
		{"empty w0", func(in *modelsJSON) { in.Idle.W0 = nil }, "w1 and w0"},
		{"zero voltage", func(in *modelsJSON) { in.Platform.Voltages[0] = 0 }, "want both > 0"},
		{"negative frequency", func(in *modelsJSON) { in.Platform.Freqs[2] = -3.5 }, "want both > 0"},
		{"voltages not increasing", func(in *modelsJSON) {
			v := in.Platform.Voltages
			v[1], v[2] = v[2], v[1]
		}, "not strictly increasing at state 3"},
		{"repeated frequency", func(in *modelsJSON) { in.Platform.Freqs[4] = in.Platform.Freqs[3] }, "not strictly increasing at state 5"},
		{"pg state outside table", func(in *modelsJSON) { in.PG = []pgJSON{{State: 7, CU: 1, NB: 1, Base: 1}} }, "unknown state 7"},
	}
	for _, c := range cases {
		var in modelsJSON
		if err := json.Unmarshal(saved.Bytes(), &in); err != nil {
			t.Fatal(err)
		}
		c.mutate(&in)
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModels(bytes.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSteadyIntervals(t *testing.T) {
	tr := &trace.Trace{Intervals: []trace.Interval{
		{DurS: 0.2}, {DurS: 0.2}, {DurS: 0.2},
	}}
	if got := len(SteadyIntervals(tr)); got != 2 {
		t.Errorf("steady intervals = %d, want 2", got)
	}
	one := &trace.Trace{Intervals: []trace.Interval{{DurS: 0.2}}}
	if got := len(SteadyIntervals(one)); got != 1 {
		t.Errorf("single interval trimmed to %d", got)
	}
	if got := len(SteadyIntervals(&trace.Trace{})); got != 0 {
		t.Errorf("empty trace gave %d", got)
	}
}
