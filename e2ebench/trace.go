package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Req; Parent is the span that made the call
// (0 for a request's root). Times are nanoseconds since the run began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer, or one
// switched off, records nothing, so untraced runs pay one nil check per
// call.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	reqs atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// request allocates a request id (0 when not tracing).
func (t *tracer) request() int64 {
	if !t.enabled() {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span and returns its id, 0 when not tracing.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if !t.enabled() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time, traced or not.
func (t *tracer) timed(name string, parent, req int64, f func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
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
	return path, f.Close()
}

// selfTime is a span's duration minus the part of it its children cover.
// Children of one parent may overlap (the open-loop clients); the union
// of their intervals, clipped to the parent, is what is subtracted.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	covered += curHi - curLo
	return (parent.End - parent.Start) - covered
}

// summarize prints, per span name, the call count, total time and self
// time, the per-layer view of where a run's time went.
func (t *tracer) summarize(w io.Writer) {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += selfTime(s, kids[s.ID])
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(by[b].self, by[a].self) })
	fmt.Fprintf(w, "# %-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "# %-28s %8d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
