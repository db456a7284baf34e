package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// finiteNonNeg reports whether a published watt figure is physically
// plausible: finite and not negative.
func finiteNonNeg(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 }

// splitmix is the benchmark's seeded input stream (splitmix64), so the
// same --seed always yields the same inputs.
type splitmix uint64

func (p *splitmix) next() uint64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform float64 in [0, 1).
func (p *splitmix) unit() float64 { return float64(p.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (p *splitmix) intn(n int) int { return int(p.next() % uint64(n)) }

// stream derives an independent input stream from the run seed and a
// label, so adding a consumer never shifts another's inputs.
func stream(seed int64, label uint64) splitmix {
	a := splitmix(uint64(seed))
	b := splitmix(label)
	return splitmix(a.next() ^ b.next())
}
