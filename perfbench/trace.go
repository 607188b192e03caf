package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are offsets from
// the run's origin; parent indexes the enclosing span in the same trace
// (-1 for a root), so every span of one request or one iteration links
// back to a single root.
type span struct {
	Name   string        `json:"name"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// trace keeps spans in memory; the run writes them out once it ends.
type trace struct {
	spans []span
	kids  [][]int32 // built lazily by selfTime
}

// add records a span and returns its index for use as a parent.
func (t *trace) add(name string, parent int32, start, end time.Duration) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
	t.kids = nil
	return int32(len(t.spans) - 1)
}

// under reports whether span i descends from root (or is root).
func (t *trace) under(i, root int32) bool {
	for ; i >= 0; i = t.spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// durationsMs returns the durations, in ms, of the spans called name
// below root (root < 0 means anywhere).
func (t *trace) durationsMs(root int32, name string) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.Name == name && (root < 0 || t.under(int32(i), root)) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTime is span i's duration minus the part of its interval that its
// direct children cover. Overlapping children count once and a child
// sticking out of its parent counts only inside it.
func (t *trace) selfTime(i int32) time.Duration {
	if t.kids == nil {
		t.kids = make([][]int32, len(t.spans))
		for j, s := range t.spans {
			if s.Parent >= 0 {
				t.kids[s.Parent] = append(t.kids[s.Parent], int32(j))
			}
		}
	}
	p := t.spans[i]
	iv := make([]span, 0, len(t.kids[i]))
	for _, k := range t.kids[i] {
		c := t.spans[k]
		c.Start, c.End = max(c.Start, p.Start), min(c.End, p.End)
		if c.End > c.Start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	var covered time.Duration
	var curS, curE time.Duration
	for n, c := range iv {
		if n == 0 || c.Start > curE {
			covered += curE - curS
			curS, curE = c.Start, c.End
		} else if c.End > curE {
			curE = c.End
		}
	}
	covered += curE - curS
	return p.dur() - covered
}

// selfTimesMs returns the self times, in ms, of the spans called name.
func (t *trace) selfTimesMs(name string) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(t.selfTime(int32(i))))
		}
	}
	return out
}

// write saves the spans as JSON at path, creating its directory.
func (t *trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
