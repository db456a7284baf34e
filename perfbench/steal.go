package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// The reference host is a small VM whose hypervisor now and then runs
// other guests on its CPUs ("steal" time in /proc/stat). While a vCPU
// is stolen nothing in the benchmark runs on it, so a run taken in a
// stolen minute reads slow although the program has not changed. The
// benchmark keeps every sample and reports the run's steal share
// beside its figures, so such a run can be recognised.

// stealTick is the length of one /proc/stat tick (USER_HZ = 100).
const stealTick = 10 * time.Millisecond

// stealClock is the host's cumulative steal counter at the start of a
// run.
type stealClock struct {
	at    time.Time
	ticks uint64
	ok    bool
}

// readSteal returns the cumulative steal ticks of all CPUs, and false
// where the kernel does not report them.
func readSteal() (uint64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	n, err := strconv.ParseUint(string(f[8]), 10, 64)
	return n, err == nil
}

func startSteal() stealClock {
	n, ok := readSteal()
	return stealClock{at: time.Now(), ticks: n, ok: ok}
}

// share is the stolen share of all CPUs' time since the clock started;
// 0 where the kernel does not count steal.
func (s stealClock) share(nproc int) float64 {
	n, ok := readSteal()
	wall := time.Since(s.at)
	if !s.ok || !ok || wall <= 0 {
		return 0
	}
	return float64(time.Duration(n-s.ticks)*stealTick) / float64(wall) / float64(nproc)
}
