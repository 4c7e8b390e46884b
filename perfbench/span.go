package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one end-to-end
// operation share op; parent is the id of the enclosing span (0 for
// the operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; dump writes them
// out once the run ends. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[id-1]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, op, parent int) int {
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.at(start), End: t.at(end)})
	return len(t.spans)
}

// opOf returns the operation of span id.
func (t *tracer) opOf(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Op
}

// spanDur returns the duration of closed span id.
func (t *tracer) spanDur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].dur()
}

// layerStats aggregates every span of one name.
type layerStats struct {
	count int
	busy  time.Duration
	durs  []float64 // milliseconds
}

// byName aggregates the spans of each name.
func (t *tracer) byName() map[string]*layerStats {
	out := map[string]*layerStats{}
	for _, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.count++
		ls.busy += s.dur()
		ls.durs = append(ls.durs, ms(s.dur()))
	}
	return out
}

// children indexes each span's direct children by parent id.
func (t *tracer) children() map[int][]span {
	out := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(spans []span) time.Duration {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return time.Duration(total + curE - curS)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := t.children()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.dur() - covered(kids[s.ID])
	}
	return out
}

// check verifies the span tree: every span is closed, every child
// lies inside its parent, and the children of a parent not named in
// concurrent never overlap, so each span's children plus its self
// time add up exactly to its duration.
func (t *tracer) check(concurrent map[string]bool) []string {
	var problems []string
	kids := t.children()
	for _, s := range t.spans {
		if s.End < s.Start {
			problems = append(problems, fmt.Sprintf("span %d (%s) not closed", s.ID, s.Name))
			continue
		}
		cs := kids[s.ID]
		var sum time.Duration
		for _, c := range cs {
			if c.Start < s.Start || c.End > s.End {
				problems = append(problems, fmt.Sprintf("span %d (%s) escapes its parent %d (%s)", c.ID, c.Name, s.ID, s.Name))
			}
			sum += c.dur()
		}
		union := covered(cs)
		if !concurrent[s.Name] && sum != union {
			problems = append(problems, fmt.Sprintf("children of span %d (%s) overlap: sum %v, union %v", s.ID, s.Name, sum, union))
		}
		if union > s.dur() {
			problems = append(problems, fmt.Sprintf("children of span %d (%s) cover %v, more than its %v", s.ID, s.Name, union, s.dur()))
		}
		if len(problems) > 10 {
			return problems
		}
	}
	return problems
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
