package core

import (
	"encoding/json"
	"fmt"
	"io"

	"ppep/internal/arch"
	"ppep/internal/core/dynpower"
	"ppep/internal/core/idlepower"
	"ppep/internal/core/pgidle"
	"ppep/internal/stats"
	"ppep/internal/units"
)

// modelsJSON is the serialized form of a trained model set. Training is a
// one-time offline effort (Section IV-B1); persisting the coefficients
// lets deployments ship them the way firmware would.
type modelsJSON struct {
	Version  int          `json:"version"`
	Platform platformJSON `json:"platform"`
	Idle     idleJSON     `json:"idle"`
	Dyn      dynJSON      `json:"dynamic"`
	PG       []pgJSON     `json:"power_gating,omitempty"`
	PGOn     bool         `json:"pg_enabled"`
	Thermal  *thermalJSON `json:"thermal,omitempty"`
}

type thermalJSON struct {
	AmbientK float64 `json:"ambient_k"`
	RthKPerW float64 `json:"rth_k_per_w"`
}

type platformJSON struct {
	Voltages []float64 `json:"voltages"`
	Freqs    []float64 `json:"freqs_ghz"`
}

type idleJSON struct {
	W1 []float64 `json:"w1"`
	W0 []float64 `json:"w0"`
}

type dynJSON struct {
	W     []float64 `json:"weights"`
	Alpha float64   `json:"alpha"`
	VRef  float64   `json:"vref"`
}

type pgJSON struct {
	State int     `json:"state"`
	CU    float64 `json:"pidle_cu"`
	NB    float64 `json:"pidle_nb"`
	Base  float64 `json:"pidle_base"`
}

const modelsVersion = 1

// Save serializes the trained models as JSON.
func (m *Models) Save(w io.Writer) error {
	if m.Idle == nil || m.Dyn == nil {
		return fmt.Errorf("core: cannot save untrained models")
	}
	ws := make([]float64, len(m.Dyn.W))
	for i, w := range m.Dyn.W {
		ws[i] = float64(w)
	}
	out := modelsJSON{
		Version: modelsVersion,
		Idle:    idleJSON{W1: m.Idle.W1, W0: m.Idle.W0},
		Dyn:     dynJSON{W: ws, Alpha: m.Dyn.Alpha, VRef: float64(m.Dyn.VRef)},
		PGOn:    m.PGEnabled,
	}
	if m.Thermal != nil {
		out.Thermal = &thermalJSON{AmbientK: float64(m.Thermal.AmbientK), RthKPerW: float64(m.Thermal.RthKPerW)}
	}
	for _, p := range m.Table {
		out.Platform.Voltages = append(out.Platform.Voltages, float64(p.Voltage))
		out.Platform.Freqs = append(out.Platform.Freqs, float64(p.Freq))
	}
	for _, s := range m.Table.States() {
		if d, ok := m.PG[s]; ok {
			out.PG = append(out.PG, pgJSON{State: int(s), CU: float64(d.PidleCU), NB: float64(d.PidleNB), Base: float64(d.PidleBase)})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// validate rejects a decoded model set whose shapes or values would
// make Analyze return nonsense without an error: a zero reference
// voltage scales every dynamic weight by (V/0)^α, an empty idle
// polynomial evaluates to 0 W/K or 0 W, and a non-increasing VF table
// breaks the state ordering every governor relies on. JSON cannot carry
// NaN or ±Inf, so every decoded number is already finite.
func (in *modelsJSON) validate() error {
	if in.Version != modelsVersion {
		return fmt.Errorf("core: unsupported models version %d", in.Version)
	}
	vs, fs := in.Platform.Voltages, in.Platform.Freqs
	if len(vs) == 0 || len(vs) != len(fs) {
		return fmt.Errorf("core: malformed platform table")
	}
	for i := range vs {
		if !(vs[i] > 0) || !(fs[i] > 0) {
			return fmt.Errorf("core: platform state %d has %g V at %g GHz, want both > 0", i+1, vs[i], fs[i])
		}
		if i > 0 && (vs[i] <= vs[i-1] || fs[i] <= fs[i-1]) {
			return fmt.Errorf("core: platform table not strictly increasing at state %d", i+1)
		}
	}
	if len(in.Dyn.W) != arch.NumPowerEvents {
		return fmt.Errorf("core: dynamic model has %d weights, want %d", len(in.Dyn.W), arch.NumPowerEvents)
	}
	if !(in.Dyn.VRef > 0) {
		return fmt.Errorf("core: dynamic.vref %g, want > 0", in.Dyn.VRef)
	}
	if len(in.Idle.W1) == 0 || len(in.Idle.W0) == 0 {
		return fmt.Errorf("core: idle model needs non-empty w1 and w0 polynomials")
	}
	return nil
}

// LoadModels deserializes a model set saved with Save, rejecting sets
// that fail validate.
func LoadModels(r io.Reader) (*Models, error) {
	var in modelsJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode models: %w", err)
	}
	if err := in.validate(); err != nil {
		return nil, err
	}
	m := &Models{
		Idle:      &idlepower.Model{W1: stats.Poly(in.Idle.W1), W0: stats.Poly(in.Idle.W0)},
		Dyn:       &dynpower.Model{Alpha: in.Dyn.Alpha, VRef: units.Volts(in.Dyn.VRef)},
		PGEnabled: in.PGOn,
	}
	if in.Thermal != nil {
		m.Thermal = &ThermalFeedback{AmbientK: units.Kelvin(in.Thermal.AmbientK), RthKPerW: units.KelvinPerWatt(in.Thermal.RthKPerW)}
	}
	for i, w := range in.Dyn.W {
		m.Dyn.W[i] = units.JoulesPerEvent(w)
	}
	for i := range in.Platform.Voltages {
		m.Table = append(m.Table, arch.VFPoint{
			Voltage: units.Volts(in.Platform.Voltages[i]), Freq: units.GigaHertz(in.Platform.Freqs[i]),
		})
	}
	if len(in.PG) > 0 {
		m.PG = map[arch.VFState]pgidle.Decomposition{}
		for _, p := range in.PG {
			s := arch.VFState(p.State)
			if !m.Table.Contains(s) {
				return nil, fmt.Errorf("core: PG entry for unknown state %d", p.State)
			}
			m.PG[s] = pgidle.Decomposition{PidleCU: units.Watts(p.CU), PidleNB: units.Watts(p.NB), PidleBase: units.Watts(p.Base)}
		}
	}
	return m, nil
}
