package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine/obs"
)

// Retention classes. Tail sampling keeps every error trace and every
// slow trace (per the db's SlowQuery threshold) unconditionally; plain
// successful statements are kept 1-in-N. Each class has its own
// bounded ring, so a flood of healthy traffic can never evict the
// error traces you actually need.
const (
	ClassError   = "error"
	ClassSlow    = "slow"
	ClassSampled = "sampled"
)

// Store instruments, registered once on the process-wide registry.
var (
	tracesRetained = obs.Default.Counter("engine_trace_retained_total",
		"Traces retained by the tail-sampling trace store (all classes).")
	tracesDropped = obs.Default.Counter("engine_trace_dropped_total",
		"Healthy traces dropped by 1-in-N tail sampling.")
	tracesEvicted = obs.Default.Counter("engine_trace_evicted_total",
		"Retained traces evicted when a class ring reached capacity.")
	traceSpans = obs.Default.Counter("engine_trace_spans_total",
		"Spans recorded into retained traces.")
)

// SpanRecord is one finished span, flattened out of the executor's
// span tree (or synthesized by the serving layer) into the parent-
// pointer form sys.spans serves.
type SpanRecord struct {
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_span_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Rows     int64         `json:"rows,omitempty"`
	Bytes    int64         `json:"bytes,omitempty"`
	// Source is "row", "float" or "block" on a partition-scan span: which
	// decoder read the partition (exec.Span.Source). Empty on every other
	// span.
	Source string `json:"source,omitempty"`
}

// Record is one trace in the store: the statement(s) that ran under
// one TraceID with their flattened spans. Script statements sharing a
// trace merge into one record.
type Record struct {
	TraceID   string        `json:"trace_id"`
	SQL       string        `json:"sql"`
	SessionID int64         `json:"session_id,omitempty"`
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"duration_ns"`
	Err       string        `json:"error,omitempty"`
	Slow      bool          `json:"slow,omitempty"`
	Class     string        `json:"class"`
	Spans     []SpanRecord  `json:"spans"`
}

// Default store shape: 1-in-16 sampling of healthy traces, 128 traces
// per retention class.
const (
	DefaultSampleN  = 16
	DefaultClassCap = 128
)

// Store is the bounded in-memory tail-sampling trace store. Decisions
// are made when a statement finishes (tail sampling: the outcome is
// known), deterministically — every Nth healthy trace is kept, so a
// store that observed at least one statement always has at least one
// trace to show.
type Store struct {
	sampleN  int
	classCap int

	mu    sync.Mutex
	seen  uint64               // healthy traces observed, for 1-in-N
	rings map[string][]*Record // per-class FIFO, oldest first
	index map[string]*Record   // TraceID -> retained record
}

// NewStore builds a store keeping 1-in-sampleN healthy traces and at
// most classCap traces per retention class. Zero or negative selects
// the defaults; sampleN 1 keeps everything.
func NewStore(sampleN, classCap int) *Store {
	if sampleN <= 0 {
		sampleN = DefaultSampleN
	}
	if classCap <= 0 {
		classCap = DefaultClassCap
	}
	return &Store{
		sampleN:  sampleN,
		classCap: classCap,
		rings:    make(map[string][]*Record),
		index:    make(map[string]*Record),
	}
}

// classOf ranks a record's retention class; error outranks slow
// outranks sampled, so a merge can only upgrade.
func classOf(errMsg string, slow bool) string {
	switch {
	case errMsg != "":
		return ClassError
	case slow:
		return ClassSlow
	default:
		return ClassSampled
	}
}

func classRank(class string) int {
	switch class {
	case ClassError:
		return 2
	case ClassSlow:
		return 1
	default:
		return 0
	}
}

// Observe records one finished statement. If the trace is already
// retained (an earlier statement of the same script, or a concurrent
// shard) the statement merges into it — upgrading its class if the new
// outcome outranks the old, so an error late in a script cannot be
// evicted by healthy-traffic pressure. New healthy traces pass the
// 1-in-N gate; error and slow traces are always kept. It returns
// whether the trace is retained after the call.
func (s *Store) Observe(rec Record) bool {
	if s == nil || rec.TraceID == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.index[rec.TraceID]; ok {
		s.mergeLocked(existing, rec)
		return true
	}
	class := classOf(rec.Err, rec.Slow)
	if class == ClassSampled {
		n := s.seen
		s.seen++
		if n%uint64(s.sampleN) != 0 {
			tracesDropped.Inc()
			return false
		}
	}
	r := rec // retain a copy; the caller keeps its value
	r.Class = class
	r.Spans = append([]SpanRecord(nil), rec.Spans...)
	s.appendLocked(&r)
	tracesRetained.Inc()
	traceSpans.Add(int64(len(r.Spans)))
	obs.Flight.Add("trace", fmt.Sprintf("trace %s class=%s dur=%s sql=%.80q", r.TraceID, r.Class, r.Duration, r.SQL))
	return true
}

// Attach merges extra spans (the serving layer's session/server span,
// a future coordinator's fan-out spans) into an already-retained
// trace; a no-op when the trace was sampled out. sessionID is recorded
// when the trace has none yet.
func (s *Store) Attach(traceID string, sessionID int64, spans ...SpanRecord) {
	if s == nil || traceID == "" || len(spans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[traceID]
	if !ok {
		return
	}
	r.Spans = append(r.Spans, spans...)
	if r.SessionID == 0 {
		r.SessionID = sessionID
	}
	for _, sp := range spans {
		if end := sp.Start.Add(sp.Duration); end.After(r.Start.Add(r.Duration)) {
			r.Duration = end.Sub(r.Start)
		}
	}
	traceSpans.Add(int64(len(spans)))
}

// mergeLocked folds a later statement of the same trace into its
// retained record.
func (s *Store) mergeLocked(r *Record, rec Record) {
	if rec.SQL != "" {
		if r.SQL == "" {
			r.SQL = rec.SQL
		} else {
			r.SQL += "; " + rec.SQL
		}
	}
	if rec.Start.Before(r.Start) {
		r.Start = rec.Start
	}
	if end := rec.Start.Add(rec.Duration); end.After(r.Start.Add(r.Duration)) {
		r.Duration = end.Sub(r.Start)
	}
	if rec.Err != "" && r.Err == "" {
		r.Err = rec.Err
	}
	r.Slow = r.Slow || rec.Slow
	if r.SessionID == 0 {
		r.SessionID = rec.SessionID
	}
	r.Spans = append(r.Spans, rec.Spans...)
	traceSpans.Add(int64(len(rec.Spans)))
	if newClass := classOf(r.Err, r.Slow); classRank(newClass) > classRank(r.Class) {
		s.removeFromRingLocked(r)
		r.Class = newClass
		s.appendLocked(r)
	}
}

// appendLocked adds r to its class ring, evicting the class's oldest
// trace when full, and indexes it.
func (s *Store) appendLocked(r *Record) {
	ring := s.rings[r.Class]
	if len(ring) >= s.classCap {
		evicted := ring[0]
		copy(ring, ring[1:])
		ring = ring[:len(ring)-1]
		delete(s.index, evicted.TraceID)
		tracesEvicted.Inc()
	}
	s.rings[r.Class] = append(ring, r)
	s.index[r.TraceID] = r
}

// removeFromRingLocked pulls r out of its current class ring (for a
// class upgrade). Rings are small (classCap), so the linear scan is
// fine.
func (s *Store) removeFromRingLocked(r *Record) {
	ring := s.rings[r.Class]
	for i, cand := range ring {
		if cand == r {
			s.rings[r.Class] = append(ring[:i], ring[i+1:]...)
			return
		}
	}
}

// Get returns a copy of the retained trace (ok false when sampled out
// or evicted).
func (s *Store) Get(traceID string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[traceID]
	if !ok {
		return Record{}, false
	}
	return copyRecord(r), true
}

// Snapshot returns copies of every retained trace, newest first.
func (s *Store) Snapshot() []Record {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]Record, 0, len(s.index))
	for _, class := range []string{ClassError, ClassSlow, ClassSampled} {
		for _, r := range s.rings[class] {
			out = append(out, copyRecord(r))
		}
	}
	s.mu.Unlock()
	// Newest first across classes, like sys.queries.
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

func copyRecord(r *Record) Record {
	out := *r
	out.Spans = append([]SpanRecord(nil), r.Spans...)
	return out
}

// Len reports the number of retained traces.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}
