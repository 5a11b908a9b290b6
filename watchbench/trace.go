package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a session: the session itself, or one of
// the benchmark's calls into a layer on that session's behalf. Spans of one
// session share its trace ID; Parent is 0 for a root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was made.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	last  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span (or trace) ID, so children can name a parent whose
// end is not known yet. A nil tracer returns 0.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(trace, id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a finished span under a fresh ID and returns that ID.
func (t *tracer) add(trace, parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(trace, id, parent, name, start, end)
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are merged
// first, so time two children share is subtracted once, and a child
// reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	if len(clipped) == 0 {
		return 0
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	run := clipped[0]
	for _, x := range clipped[1:] {
		if x[0] > run[1] {
			total += run[1] - run[0]
			run = x
		} else if x[1] > run[1] {
			run[1] = x[1]
		}
	}
	return total + run[1] - run[0]
}

// selfTimeByName sums self time per span name, for the trace summary.
func selfTimeByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
