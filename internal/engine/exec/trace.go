package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one timed region of a statement's execution. Spans form a
// tree rooted at the statement: plan, scan (with one child per scanned
// partition), merge and finalize, mirroring the
// aggregate UDF protocol's phases. Rows and Bytes carry the volume the
// span processed where that is meaningful (scan spans: rows delivered
// and encoded bytes decoded; the root: rows emitted).
//
// The executor records phase durations *from* the spans, so a span
// tree's totals agree exactly with the Stats fields shells and
// benchmarks report.
type Span struct {
	Name string `json:"name"`
	// ID is the span's trace-layer identity (16 hex digits), assigned
	// by the db layer when the finished tree is stamped with its
	// statement's TraceID; empty until then. The executor itself knows
	// nothing about trace propagation.
	ID    string    `json:"span_id,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Rows  int64     `json:"rows,omitempty"`
	Bytes int64     `json:"bytes,omitempty"`
	// Source is set on scan[pN] spans only: "block" when the partition
	// was read from its column segment (and any rows appended since it
	// was derived from the row log), "float" when it was read from the
	// row log through the float decode (a statement that scans float
	// rows), "row" when it was read from the row log boxed.
	Source   string  `json:"source,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// Duration is the span's wall time.
func (sp *Span) Duration() time.Duration { return sp.End.Sub(sp.Start) }

// newSpan starts a span now.
func newSpan(name string) *Span { return &Span{Name: name, Start: time.Now()} }

// finish closes the span and returns its duration.
func (sp *Span) finish() time.Duration {
	sp.End = time.Now()
	return sp.Duration()
}

// child appends and returns a new child span started now.
func (sp *Span) child(name string) *Span {
	c := newSpan(name)
	sp.Children = append(sp.Children, c)
	return c
}

// sortChildren orders children by start time; partition spans are
// written concurrently and land in worker order.
func (sp *Span) sortChildren() {
	sort.SliceStable(sp.Children, func(i, j int) bool {
		return sp.Children[i].Start.Before(sp.Children[j].Start)
	})
}

// RenderTree pretty-prints the span tree with box-drawing connectors,
// the EXPLAIN ANALYZE output:
//
//	statement (1.23ms) rows=42
//	├─ plan (0.02ms)
//	├─ scan (1.08ms) rows=100000 bytes=2.3 MB
//	│  ├─ scan[p0] (1.01ms) rows=50000 source=row
//	│  └─ scan[p1] (0.99ms) rows=50000 source=row
//	├─ merge (0.05ms)
//	└─ finalize (0.08ms)
func (sp *Span) RenderTree() string {
	var b strings.Builder
	sp.render(&b, "", "", "")
	return b.String()
}

func (sp *Span) render(b *strings.Builder, indent, branch, childIndent string) {
	b.WriteString(indent)
	b.WriteString(branch)
	fmt.Fprintf(b, "%s (%s)", sp.Name, round(sp.Duration()))
	if sp.Rows > 0 {
		fmt.Fprintf(b, " rows=%d", sp.Rows)
	}
	if sp.Bytes > 0 {
		fmt.Fprintf(b, " bytes=%s", formatBytes(sp.Bytes))
	}
	if sp.Source != "" {
		fmt.Fprintf(b, " source=%s", sp.Source)
	}
	b.WriteByte('\n')
	for i, c := range sp.Children {
		last := i == len(sp.Children)-1
		cb, ci := "├─ ", "│  "
		if last {
			cb, ci = "└─ ", "   "
		}
		c.render(b, indent+childIndent, cb, ci)
	}
}

// SpanByName finds the first direct child with the given name (nil if
// absent); tests and tools use it to cross-check phase totals.
func (sp *Span) SpanByName(name string) *Span {
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}
