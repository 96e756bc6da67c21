package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced call into a layer's public API, recorded in memory
// by the benchmark itself (the engine's own span trees are not read
// here). Times are nanoseconds since the scope's origin.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // operation the span belongs to; -1 for replay
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// scope records the spans of one goroutine. A nil *scope records
// nothing, so untraced runs pay one nil check per call site.
type scope struct {
	origin time.Time
	client int
	op     int
	spans  []span
	stack  []int
}

func newScope(origin time.Time, client int) *scope {
	return &scope{origin: origin, client: client, op: -1}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (s *scope) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.spans)
	s.spans = append(s.spans, span{ID: id, Parent: parent, Op: s.op, Name: name, Start: int64(time.Since(s.origin))})
	s.stack = append(s.stack, id)
	return func() {
		s.spans[id].End = int64(time.Since(s.origin))
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// selfTimes returns, per span name, every span's duration minus the
// part its children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string][]time.Duration{}
	for i, sp := range spans {
		out[sp.Name] = append(out[sp.Name], time.Duration(sp.End-sp.Start-child[i]))
	}
	return out
}

// spanDurations returns every span's full duration by name.
func spanDurations(spans []span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, sp := range spans {
		out[sp.Name] = append(out[sp.Name], time.Duration(sp.End-sp.Start))
	}
	return out
}

func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// traceFile is what a traced run dumps at exit.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Clients  [][]span `json:"clients"` // live operation spans, one slice per client goroutine
	Replay   []span   `json:"replay"`  // layer replays, under one "replay" root
}

func writeJSONFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
