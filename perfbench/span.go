package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code: the program under test is never instrumented by it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Cell   int    `json:"cell"`   // one id per cell run; -1 outside cells
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"` // filled by finish
}

// spanLog keeps every span in memory until the run ends. A nil log
// records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent, cell int) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Cell: cell, Name: name,
		Start: int64(time.Since(l.t0)), End: -1})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = int64(time.Since(l.t0))
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once). It returns the smallest self time found, which is
// never negative for well-nested spans.
func (l *spanLog) finish() (minSelf int64) {
	kids := make(map[int][][2]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	minSelf = -1
	for i := range l.spans {
		s := &l.spans[i]
		s.SelfNs = selfTime(s.Start, s.End, kids[s.ID])
		if minSelf < 0 || s.SelfNs < minSelf {
			minSelf = s.SelfNs
		}
	}
	return minSelf
}

// selfTime is end-start minus the union of the child intervals,
// clipped to [start, end].
func selfTime(start, end int64, children [][2]int64) int64 {
	cs := append([][2]int64(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
	covered := int64(0)
	cur := start
	for _, c := range cs {
		lo, hi := max(c[0], cur), min(c[1], end)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return end - start - covered
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
