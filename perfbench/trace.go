package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: the layer (the
// program's package), the call, its host-time bounds relative to the
// tracer's start, the span that caused it (-1 for none) and the
// operation it belongs to (a cell, a query, a poll).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans a run keeps (about 100 bytes each in memory
// and on disk); a trace run stops opening traced rounds near it.
const maxSpans = 100_000

// tracer keeps spans in memory; write saves them when the run ends.
// All methods are no-ops on a nil tracer, so untraced rounds share the
// traced rounds' code without paying for it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1024)} }

// begin opens a span and returns its id.
func (t *tracer) begin(layer, name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	d := time.Duration(s.End - s.Start)
	t.mu.Unlock()
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every closed span with this name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// sum adds the durations of every closed span with this name.
func (t *tracer) sum(name string) time.Duration {
	var total time.Duration
	for _, d := range t.durations(name) {
		total += d
	}
	return total
}

// selfTimes returns each layer's self time in milliseconds per traced
// round: a span's duration minus the part of it its child spans cover
// (children may overlap, as the cells of a parallel pool do).
func (t *tracer) selfTimes(rounds int) map[string]float64 {
	out := map[string]float64{}
	for _, l := range tracedLayers {
		out[l] = 0
	}
	if rounds == 0 {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Layer] += float64(self) / 1e6 / float64(rounds)
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// write saves the spans as JSON lines under the work directory.
func (t *tracer) write(workload string, seed int64) (string, error) {
	path := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
