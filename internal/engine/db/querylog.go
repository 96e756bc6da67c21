package db

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
	"repro/internal/engine/trace"
)

// Session identifies the network session a statement arrived on. The
// serving layer attaches one to the statement context with WithSession;
// in-process statements carry none and record zero values.
type Session struct {
	// ID is the server-assigned session number (0 for in-process).
	ID int64 `json:"id"`
	// User is the handshake's (unauthenticated) user name.
	User string `json:"user,omitempty"`
	// RemoteAddr is the client's network address ("" for in-process).
	RemoteAddr string `json:"remote_addr,omitempty"`
}

type sessionKey struct{}

// WithSession returns a context carrying the session a statement
// belongs to; the query ring records it alongside the statement.
func WithSession(ctx context.Context, s Session) context.Context {
	return context.WithValue(ctx, sessionKey{}, s)
}

// SessionFromContext extracts the session attached by WithSession
// (zero Session and false when the statement is in-process).
func SessionFromContext(ctx context.Context) (Session, bool) {
	s, ok := ctx.Value(sessionKey{}).(Session)
	return s, ok
}

// queryRingSize bounds the recent-query ring. 128 statements is enough
// to hold a whole harness experiment while staying trivially small.
const queryRingSize = 128

// DefaultSlowQuery is the slow-query threshold used when Options leaves
// SlowQuery zero.
const DefaultSlowQuery = 250 * time.Millisecond

// QueryRecord is one completed statement in the recent-query ring,
// the row source for sys.queries and the /debug/queries endpoint.
type QueryRecord struct {
	// ID numbers statements in execution order, starting at 1.
	ID int64 `json:"id"`
	// SQL is the statement text: the original SQL when the statement
	// arrived as text, or a rendered/placeholder form when it arrived
	// pre-parsed via Run.
	SQL      string        `json:"sql"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	// Err is the error message for failed statements ("" on success).
	Err string `json:"error,omitempty"`
	// SessionID and RemoteAddr identify the network session the
	// statement arrived over; zero/empty for in-process statements.
	SessionID  int64  `json:"session_id,omitempty"`
	RemoteAddr string `json:"remote_addr,omitempty"`
	// Slow marks statements whose duration met the configured
	// slow-query threshold.
	Slow bool `json:"slow,omitempty"`
	// TraceID is the statement's end-to-end trace identity; the key
	// into sys.traces when the trace was retained.
	TraceID string `json:"trace_id,omitempty"`
	// Stats is the executor's account of the statement (nil for DDL
	// and failed statements).
	Stats *exec.Stats `json:"stats,omitempty"`
}

// queryLog is a fixed-size ring of recent QueryRecords.
type queryLog struct {
	mu   sync.Mutex
	next int64
	buf  [queryRingSize]QueryRecord
	pos  int
	n    int
}

func (l *queryLog) add(r QueryRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	r.ID = l.next
	l.buf[l.pos] = r
	l.pos = (l.pos + 1) % queryRingSize
	if l.n < queryRingSize {
		l.n++
	}
}

// recent returns the retained records newest-first.
func (l *queryLog) recent() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryRecord, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.pos-i+queryRingSize)%queryRingSize])
	}
	return out
}

// ObserveStatement records an externally executed statement in this
// instance's query ring, trace store and counters, exactly as the
// in-process dispatch paths do. The cluster coordinator runs
// statements through shard fan-out rather than this DB's executor, yet
// its sys.queries/sys.traces views live here — this is how its
// fan-out statements (with their hand-built coordinator→shard span
// trees in st.Root) earn the same observability as local ones.
func (d *DB) ObserveStatement(ctx context.Context, sql string, start time.Time, st *exec.Stats, err error) {
	d.noteQuery(ctx, sql, start, st, err)
}

// noteQuery records a finished statement in the ring and updates the
// process-wide query counters. It is called on every dispatch path —
// Exec, Run, ExecScript, QueryStream and prepared execution — so it is
// also where every statement earns its trace identity: the stats span
// tree is stamped with trace/span IDs (adopting the caller's
// SpanContext when the serving layer attached one) and observed into
// the tail-sampling trace store, and statements over the SlowQuery
// threshold emit the structured slow-query log line.
func (d *DB) noteQuery(ctx context.Context, sql string, start time.Time, st *exec.Stats, err error) {
	dur := time.Since(start)
	rec := QueryRecord{SQL: sql, Start: start, Duration: dur, Stats: st}
	if sess, ok := SessionFromContext(ctx); ok {
		rec.SessionID = sess.ID
		rec.RemoteAddr = sess.RemoteAddr
	}
	obs.Queries.Inc()
	if err != nil {
		rec.Err = err.Error()
		obs.QueryErrors.Inc()
	}
	if dur >= d.opts.SlowQuery {
		rec.Slow = true
		obs.SlowQueries.Inc()
	}
	tid, spans := d.stampTrace(ctx, start, dur, st)
	rec.TraceID = tid
	d.traces.Observe(trace.Record{
		TraceID:   tid,
		SQL:       sql,
		SessionID: rec.SessionID,
		Start:     start,
		Duration:  dur,
		Err:       rec.Err,
		Slow:      rec.Slow,
		Spans:     spans,
	})
	if rec.Slow {
		var rowsScanned int64
		if st != nil {
			rowsScanned = st.RowsScanned
		}
		d.logger.LogAttrs(ctx, slog.LevelWarn, "slow query",
			slog.String("kind", statementKind(sql)),
			slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
			slog.Int64("rows_scanned", rowsScanned),
			slog.String("trace_id", tid),
			slog.Int64("session_id", rec.SessionID),
		)
	}
	d.qlog.add(rec)
}

// RecentQueries returns the retained recent statements, newest first.
// sys.queries and the debug endpoint are views over this.
func (d *DB) RecentQueries() []QueryRecord { return d.qlog.recent() }
