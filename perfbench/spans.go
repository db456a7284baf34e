package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span (-1 at the top); spans of one HTTP request share Req.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req,omitempty"`
}

// tracer keeps every span in memory until the run ends. It is safe
// for concurrent use: HTTP handler spans open on server goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. A nil tracer records nothing
// and returns -1, so call sites need no tracing branch.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	id := t.begin(name, parent, 0)
	fn()
	t.end(id)
}

// layerStats holds one span name's duration and self-time samples, in µs.
type layerStats struct{ total, self []float64 }

// spanStats groups layerStats by span name.
type spanStats map[string]*layerStats

// stats groups closed spans by name. Self time is a span's duration
// minus the part of it its children cover (children of one parent run
// one after another, but their union is taken so overlap never counts
// twice).
func (t *tracer) stats() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := spanStats{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, reach time.Duration
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		st.total = append(st.total, us(dur))
		st.self = append(st.self, us(dur-covered))
	}
	return out
}

// p50 returns the median duration (or self time) of spans named name,
// in µs; 0 when none were recorded.
func (st spanStats) p50(name string, self bool) float64 {
	s := st[name]
	if s == nil {
		return 0
	}
	if self {
		return median(s.self)
	}
	return median(s.total)
}

// summary prints one line per span name: count, median duration and
// median self time.
func (t *tracer) summary(w io.Writer) {
	st := t.stats()
	for _, name := range sortedKeys(st) {
		s := st[name]
		fmt.Fprintf(w, "span %-28s n=%-7d p50=%10.1fus self_p50=%10.1fus\n",
			name, len(s.total), median(s.total), median(s.self))
	}
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
