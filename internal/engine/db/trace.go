package db

import (
	"context"
	"strings"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/engine/trace"
)

// Traces returns the instance's tail-sampling trace store. sys.traces,
// sys.spans and /debug/traces are views over it; the serving layer
// attaches its session/server spans through it.
func (d *DB) Traces() *trace.Store { return d.traces }

// stampTrace assigns a finished statement its trace identity: it
// resolves the SpanContext (caller-provided via trace.NewContext — the
// serving layer's adopted client trace — or a fresh root for
// in-process statements), stamps the stats span tree with span IDs,
// and flattens the tree into the store's parent-pointer records.
func (d *DB) stampTrace(ctx context.Context, start time.Time, dur time.Duration, st *exec.Stats) (tid string, spans []trace.SpanRecord) {
	sc, fromCaller := trace.FromContext(ctx)
	if !fromCaller {
		sc.TraceID = trace.NewTraceID()
	}
	tid = sc.TraceID.String()
	parent := ""
	if fromCaller && !sc.SpanID.IsZero() {
		parent = sc.SpanID.String()
	}
	if st != nil {
		st.TraceID = tid
		if st.Root != nil {
			stampSpans(st.Root)
			return tid, flattenSpans(st.Root, parent, nil)
		}
	}
	// DDL and failed statements carry no executor span tree; synthesize
	// the statement span so the trace still renders (and an error trace
	// is never invisible).
	return tid, []trace.SpanRecord{{
		SpanID:   trace.NewSpanID().String(),
		ParentID: parent,
		Name:     "statement",
		Start:    start,
		Duration: dur,
	}}
}

// stampSpans assigns fresh span IDs throughout a finished tree. Spans
// already stamped (a tree re-observed through the query ring) keep
// their IDs.
func stampSpans(sp *exec.Span) {
	if sp.ID == "" {
		sp.ID = trace.NewSpanID().String()
	}
	for _, c := range sp.Children {
		stampSpans(c)
	}
}

// flattenSpans converts a span tree into the store's parent-pointer
// form, depth-first.
func flattenSpans(sp *exec.Span, parent string, out []trace.SpanRecord) []trace.SpanRecord {
	out = append(out, trace.SpanRecord{
		SpanID:   sp.ID,
		ParentID: parent,
		Name:     sp.Name,
		Start:    sp.Start,
		Duration: sp.Duration(),
		Rows:     sp.Rows,
		Bytes:    sp.Bytes,
		Source:   sp.Source,
	})
	for _, c := range sp.Children {
		out = flattenSpans(c, sp.ID, out)
	}
	return out
}

// statementKind is a statement's leading keyword, lowercased — the
// label the slow-query log carries ("select", "insert", "create", ...).
func statementKind(sql string) string {
	f := strings.Fields(sql)
	if len(f) == 0 {
		return "unknown"
	}
	kind := strings.ToLower(strings.Trim(f[0], "(;"))
	if kind == "" {
		return "unknown"
	}
	return kind
}
