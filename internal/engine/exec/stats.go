package exec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Stats describes how one statement executed: how much data the
// parallel scan touched, how evenly it was spread over partitions, and
// where the time went across the aggregate UDF protocol's four phases.
// Workers fill their own slots (PartitionRows[p]) or use atomic adds
// during the scan; everything else is written single-threaded, so a
// finished Stats can be read freely.
type Stats struct {
	// Partitions is the driving table's partition count; Workers is the
	// number of goroutines that scanned them, the caller included: the
	// scan's width, one per storage.ChunkRows rows to read, capped by
	// the partitions and Env.Workers.
	Partitions int `json:"partitions"`
	Workers    int `json:"workers"`

	// RowsScanned counts driving-table rows delivered to the scan;
	// BytesRead counts encoded bytes decoded from its partition files
	// (0 for in-memory tables). PartitionRows holds per-partition
	// scanned rows, the raw material for skew analysis.
	RowsScanned   int64   `json:"rows_scanned"`
	BytesRead     int64   `json:"bytes_read"`
	PartitionRows []int64 `json:"partition_rows,omitempty"`

	// RowsEmitted counts rows delivered to the result sink.
	RowsEmitted int64 `json:"rows_emitted"`

	// Phase wall times. Plan covers rewrite, binding, pushdown and the
	// join-tail materialization; Scan is the parallel partition scan
	// (UDF phases 1-2: init + accumulate); Merge is the cross-partition
	// partial merge (phase 3); Finalize covers finalization and
	// post-aggregation expression evaluation (phase 4). Projections
	// only populate Plan and Scan.
	Plan     time.Duration `json:"plan_ns"`
	Scan     time.Duration `json:"scan_ns"`
	Merge    time.Duration `json:"merge_ns"`
	Finalize time.Duration `json:"finalize_ns"`
	Total    time.Duration `json:"total_ns"`

	// Root is the statement's span tree: plan/scan[p]/merge/finalize
	// children with start/end times and per-partition scan volumes.
	// The phase durations above are derived from these spans, so the
	// tree's totals agree exactly with them. Nil only for Stats built
	// by hand (tests).
	Root *Span `json:"root,omitempty"`

	// TraceID is the statement's end-to-end trace identity (32 hex
	// digits), stamped by the db layer when the statement finishes. It
	// rides the stats JSON over the wire so a remote EXPLAIN ANALYZE
	// can print the ID that indexes the server's sys.traces.
	TraceID string `json:"trace_id,omitempty"`

	// hasMerge marks aggregate executions, whose merge/finalize phases
	// are observed into the latency histograms even when fast.
	hasMerge bool
}

// AppendJSON appends s's JSON encoding to b, the bytes json.Marshal
// produces for it, without reflection: it is what every Done frame
// carries. A string that needs escaping goes through json.Marshal on
// its own. Where json.Marshal fails — a span time whose year is outside
// [0,9999] or whose zone offset is 24 hours or more — AppendJSON
// appends nothing.
func (s *Stats) AppendJSON(b []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	n0 := len(b)
	b = append(b, `{"partitions":`...)
	b = strconv.AppendInt(b, int64(s.Partitions), 10)
	b = append(b, `,"workers":`...)
	b = strconv.AppendInt(b, int64(s.Workers), 10)
	b = append(b, `,"rows_scanned":`...)
	b = strconv.AppendInt(b, s.RowsScanned, 10)
	b = append(b, `,"bytes_read":`...)
	b = strconv.AppendInt(b, s.BytesRead, 10)
	if len(s.PartitionRows) > 0 {
		b = append(b, `,"partition_rows":[`...)
		for i, r := range s.PartitionRows {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, r, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows_emitted":`...)
	b = strconv.AppendInt(b, s.RowsEmitted, 10)
	b = append(b, `,"plan_ns":`...)
	b = strconv.AppendInt(b, int64(s.Plan), 10)
	b = append(b, `,"scan_ns":`...)
	b = strconv.AppendInt(b, int64(s.Scan), 10)
	b = append(b, `,"merge_ns":`...)
	b = strconv.AppendInt(b, int64(s.Merge), 10)
	b = append(b, `,"finalize_ns":`...)
	b = strconv.AppendInt(b, int64(s.Finalize), 10)
	b = append(b, `,"total_ns":`...)
	b = strconv.AppendInt(b, int64(s.Total), 10)
	if s.Root != nil {
		b = append(b, `,"root":`...)
		var ok bool
		if b, ok = s.Root.appendJSON(b); !ok {
			return b[:n0]
		}
	}
	if s.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendJSONString(b, s.TraceID)
	}
	return append(b, '}')
}

// appendJSON appends sp's JSON encoding (see Stats.AppendJSON); false
// means a time json.Marshal rejects.
func (sp *Span) appendJSON(b []byte) ([]byte, bool) {
	if sp == nil {
		return append(b, "null"...), true
	}
	b = append(b, `{"name":`...)
	b = appendJSONString(b, sp.Name)
	if sp.ID != "" {
		b = append(b, `,"span_id":`...)
		b = appendJSONString(b, sp.ID)
	}
	var ok bool
	b = append(b, `,"start":`...)
	if b, ok = appendJSONTime(b, sp.Start); !ok {
		return b, false
	}
	b = append(b, `,"end":`...)
	if b, ok = appendJSONTime(b, sp.End); !ok {
		return b, false
	}
	if sp.Rows != 0 {
		b = append(b, `,"rows":`...)
		b = strconv.AppendInt(b, sp.Rows, 10)
	}
	if sp.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, sp.Bytes, 10)
	}
	if sp.Source != "" {
		b = append(b, `,"source":`...)
		b = appendJSONString(b, sp.Source)
	}
	if len(sp.Children) > 0 {
		b = append(b, `,"children":[`...)
		for i, c := range sp.Children {
			if i > 0 {
				b = append(b, ',')
			}
			if b, ok = c.appendJSON(b); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// appendJSONTime appends t as time.Time.MarshalJSON does, and applies
// its range checks: false for a year outside [0,9999] or a zone hour
// outside [0,23].
func appendJSONTime(b []byte, t time.Time) ([]byte, bool) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return b, false
	}
	if b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		h := 10*(b[len(b)-len("07:00")]-'0') + (b[len(b)-len("7:00")] - '0')
		if '0' <= c && c <= '9' || h >= 24 {
			return b, false
		}
	}
	return append(b, '"'), true
}

// appendJSONString appends s quoted. Plain printable ASCII is copied;
// anything json.Marshal would escape (quotes, backslashes, control
// bytes, <, > and &, non-ASCII) is left to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ensureRoot returns the statement span, creating it on first use.
func (s *Stats) ensureRoot() *Span {
	if s.Root == nil {
		s.Root = newSpan("statement")
	}
	return s.Root
}

// Skew is max/mean of per-partition scanned rows: 1.0 is perfectly
// balanced, higher means some partition did disproportionate work.
// Zero-row scans report 0.
func (s *Stats) Skew() float64 {
	var max, sum int64
	for _, r := range s.PartitionRows {
		sum += r
		if r > max {
			max = r
		}
	}
	if sum == 0 || len(s.PartitionRows) == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.PartitionRows))
	return float64(max) / mean
}

// String renders a one-line summary for shells and logs.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scanned %d rows", s.RowsScanned)
	if s.BytesRead > 0 {
		fmt.Fprintf(&b, " (%s)", formatBytes(s.BytesRead))
	}
	if s.Partitions > 0 {
		fmt.Fprintf(&b, " over %d partitions", s.Partitions)
		if sk := s.Skew(); sk > 0 {
			fmt.Fprintf(&b, " [skew %.2f]", sk)
		}
	}
	fmt.Fprintf(&b, ", emitted %d rows; plan %s scan %s", s.RowsEmitted, round(s.Plan), round(s.Scan))
	if s.Merge > 0 || s.Finalize > 0 {
		fmt.Fprintf(&b, " merge %s finalize %s", round(s.Merge), round(s.Finalize))
	}
	fmt.Fprintf(&b, " total %s (workers %d)", round(s.Total), s.Workers)
	return b.String()
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
