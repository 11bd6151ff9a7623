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

// span is one timed call at a layer boundary. Times are offsets on the
// benchmark clock. Parent and Req are filled either when the span is
// opened (the benchmark's own client spans) or afterwards, when a span
// recorded inside the program (an adapter around an interface the
// program takes) is matched to the request that caused it.
type span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // 0: none
	Req    int           `json:"req"`    // 0: none
	// Key carries what matching needs: the image hashes of an
	// inference pass, or the network and points of an engine sweep.
	Key []uint64 `json:"-"`
	Tag string   `json:"tag,omitempty"`
	N   int      `json:"n,omitempty"` // work items (images, points, MACs)
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced runs measure with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// now is the benchmark clock.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// open records a span that has started and returns its id; close
// sets its end. Children recorded in between can name it as parent.
func (t *tracer) open(name string) int {
	return t.add(span{Name: name, Start: t.now()})
}

func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns copies of the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[id:] {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// byName returns copies of the spans with the given name, in start
// order.
func (t *tracer) byName(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// link sets the parent and request of a recorded span.
func (t *tracer) link(id, parent, req int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
	t.spans[id-1].Req = req
}

// selfTable computes each span name's total and self time, where a
// span's self time is its duration minus what its children cover.
func (t *tracer) selfTable() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.iv())
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += selfTime(s.iv(), children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// layerTime is one row of the per-layer self-time table.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
