package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Spans of one device, batch or schedule share ID;
// Parent is the index of the enclosing span (-1 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. Begin and End
// are safe for concurrent use, so device spans can be recorded from the
// fleet's worker goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index for end and for children.
// On a nil tracer (an untraced run) begin and end do nothing.
func (t *tracer) begin(name string, id int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return idx
}

func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// total is the summed duration in seconds of every span named name.
func (t *tracer) total(name string) float64 { return sum(t.durations(name)) }

// childTotal sums the durations of the direct children of span idx.
func (t *tracer) childTotal(idx int32) float64 {
	var s float64
	for _, c := range t.spans {
		if c.Parent == idx && c.End >= 0 {
			s += float64(c.End-c.Start) / 1e9
		}
	}
	return s
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it that the union of its children
// covers. Children of one parent may overlap (devices on parallel
// workers), so the union, not the sum, is subtracted.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		iv := kids[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		lo, hi := int64(-1), int64(-1)
		for _, c := range iv {
			cs, ce := max(c[0], s.Start), min(c[1], s.End)
			if ce <= cs {
				continue
			}
			if cs > hi {
				covered += hi - lo
				lo, hi = cs, ce
			} else if ce > hi {
				hi = ce
			}
		}
		covered += hi - lo
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSelfTable prints the self-time table, largest first.
func (t *tracer) writeSelfTable(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "span self time (host seconds; parallel spans count worker time):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %10.4f s  (%d spans)\n", n, self[n], len(t.durations(n)))
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles
// "inclusive" method); 0 for an empty sample.
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
