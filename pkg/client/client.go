// Package client is the Go client for the engine's wire-protocol
// server — the reproduction's stand-in for the ODBC client stack the
// paper scores through. It offers a database/sql-flavored API over a
// connection pool: materialized Query, streaming QueryStream, script
// Exec, parameterized statements (Prepare, then Stmt.Query with `?`
// arguments), and Ping, all context-aware. Every statement travels as
// its text, with its arguments in the same frame; the server's plan
// cache plans a text once and serves each later request from that plan,
// so the client holds no per-connection statement state.
//
// Pooled connections are health-checked on checkout after sitting
// idle, and idempotent SELECTs are automatically retried with backoff
// on connection loss, so a bounced server costs a read-only caller
// latency, not an error.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/trace"
	"repro/internal/server/wire"
)

// Error is the typed error the server sends on statement failure.
// Inspect .Code, or use IsBusy for admission-control rejections.
type Error = wire.Error

// IsBusy reports whether err is the server's admission-control
// rejection — the signal to back off and retry.
func IsBusy(err error) bool { return wire.IsBusy(err) }

// Defaults for Config's zero values.
const (
	defaultPoolSize         = 4
	defaultDialTimeout      = 10 * time.Second
	defaultRetryAttempts    = 2
	defaultRetryBackoff     = 50 * time.Millisecond
	defaultHealthCheckAfter = 30 * time.Second
)

// Config configures a Pool.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// User is reported in the handshake and shows up in the server's
	// sys.sessions and sys.queries.
	User string
	// PoolSize bounds open connections. Default 4.
	PoolSize int
	// DialTimeout bounds connection establishment including the
	// handshake. Default 10s.
	DialTimeout time.Duration
	// RetryAttempts is how many times Query re-runs an idempotent
	// SELECT after losing its connection mid-flight. Default 2;
	// negative disables retry.
	RetryAttempts int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt. Default 50ms.
	RetryBackoff time.Duration
	// HealthCheckAfter pings a pooled connection at checkout when it
	// has been idle at least this long, discarding it if the ping
	// fails. Default 30s; negative disables the check.
	HealthCheckAfter time.Duration
	// AutoPrepareAfter has no effect: the server's plan cache serves
	// repeated statement text.
	//
	// Deprecated: ignored.
	AutoPrepareAfter int
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = defaultPoolSize
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = defaultDialTimeout
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = defaultRetryAttempts
	} else if c.RetryAttempts < 0 {
		c.RetryAttempts = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = defaultRetryBackoff
	}
	if c.HealthCheckAfter == 0 {
		c.HealthCheckAfter = defaultHealthCheckAfter
	}
	return c
}

// Rows is a materialized query result.
type Rows struct {
	Schema *sqltypes.Schema
	Rows   []sqltypes.Row
	// Affected is nonzero for statements that modify data.
	Affected int64
	// StatsJSON is the server-side executor statistics for the
	// statement, JSON-encoded ("" when the statement did not scan).
	StatsJSON string
	// TraceID identifies the statement's server-side trace. Look it up in
	// the server's sys.traces / sys.spans to see the full span tree this
	// roundtrip produced.
	TraceID string

	// summary carries a MsgSummaryResult reply when the exchange was a
	// Summary request.
	summary *wire.SummaryResult
}

// Pool is a bounded pool of wire-protocol connections. Safe for
// concurrent use.
type Pool struct {
	cfg     Config
	permits chan struct{} // one per potential open connection

	mu     sync.Mutex
	idle   []*conn // LIFO: most recently used first
	closed bool
}

// Open creates a pool. Connections are dialed lazily; use Ping to
// validate the address eagerly.
func Open(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, errors.New("client: Config.Addr required")
	}
	return &Pool{cfg: cfg, permits: make(chan struct{}, cfg.PoolSize)}, nil
}

// conn is one established session.
type conn struct {
	nc       net.Conn
	wc       *wire.Conn
	session  int64
	idleFrom time.Time
	// broken marks the connection unfit for reuse: a transport or
	// protocol failure, or a cancelled context that left the deadline
	// in the past and possibly a half-read response stream. Callers
	// must discard (never pool) a broken connection.
	broken bool
}

// dial establishes and handshakes one connection.
func (p *Pool) dial(ctx context.Context) (*conn, error) {
	d := net.Dialer{Timeout: p.cfg.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", p.cfg.Addr)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(p.cfg.DialTimeout))
	wc := wire.NewConn(nc)
	if err := wc.Send(wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion, User: p.cfg.User})); err != nil {
		nc.Close()
		return nil, err
	}
	f, err := wc.Recv()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if f.Type == wire.MsgError {
		nc.Close()
		if we, derr := wire.DecodeError(f.Payload); derr == nil {
			countServerError(we)
			return nil, we
		}
		return nil, errors.New("client: handshake rejected")
	}
	if f.Type != wire.MsgWelcome {
		nc.Close()
		return nil, fmt.Errorf("client: expected Welcome, got frame type %#x", f.Type)
	}
	w, err := wire.DecodeWelcome(f.Payload)
	if err == nil && w.Proto != wire.ProtocolVersion {
		err = fmt.Errorf("client: server welcomed protocol version %d, want %d", w.Proto, wire.ProtocolVersion)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return &conn{nc: nc, wc: wc, session: w.SessionID}, nil
}

// traceHeader builds the statement's wire trace context: the TraceID
// (adopted from ctx when the caller already carries one) plus a fresh
// roundtrip span ID for the server's span to parent under.
func traceHeader(ctx context.Context) wire.TraceHeader {
	sc, ok := trace.FromContext(ctx)
	if !ok || sc.TraceID.IsZero() {
		sc.TraceID = trace.NewTraceID()
	}
	return wire.TraceHeader{TraceID: sc.TraceID, SpanID: trace.NewSpanID()}
}

// get checks a connection out of the pool, dialing when the pool has
// room and no idle connection is healthy.
func (p *Pool) get(ctx context.Context) (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("client: pool closed")
	}
	p.mu.Unlock()
	select {
	case p.permits <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Holding a permit: reuse an idle connection or dial a new one.
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			<-p.permits
			return nil, errors.New("client: pool closed")
		}
		var c *conn
		if n := len(p.idle); n > 0 {
			c = p.idle[n-1]
			p.idle = p.idle[:n-1]
		}
		p.mu.Unlock()
		if c == nil {
			nc, err := p.dial(ctx)
			if err != nil {
				<-p.permits
				return nil, err
			}
			return nc, nil
		}
		if p.cfg.HealthCheckAfter >= 0 && time.Since(c.idleFrom) >= p.cfg.HealthCheckAfter {
			if err := c.ping(p.cfg.DialTimeout); err != nil {
				c.nc.Close() // stale; try the next idle conn or dial
				continue
			}
		}
		return c, nil
	}
}

// put returns a healthy connection to the pool.
func (p *Pool) put(c *conn) {
	c.idleFrom = time.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.close()
		<-p.permits
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	<-p.permits
}

// discard drops a broken connection, freeing its pool slot.
func (p *Pool) discard(c *conn) {
	c.nc.Close()
	<-p.permits
}

// release returns c to the pool, unless the round trip left it broken
// (transport failure or a fired context), in which case it is dropped —
// pooling it would hand the next caller a spurious instant timeout.
func (p *Pool) release(c *conn) {
	if c.broken {
		p.discard(c)
		return
	}
	p.put(c)
}

// Close closes the pool and its idle connections. Connections checked
// out by in-flight calls are closed as they are returned.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
	return nil
}

// ping runs a Ping/Pong round trip under deadline.
func (c *conn) ping(timeout time.Duration) error {
	c.nc.SetDeadline(time.Now().Add(timeout))
	defer c.nc.SetDeadline(time.Time{})
	if err := c.wc.Send(wire.MsgPing, nil); err != nil {
		return err
	}
	f, err := c.wc.Recv()
	if err != nil {
		return err
	}
	if f.Type != wire.MsgPong {
		return fmt.Errorf("client: expected Pong, got frame type %#x", f.Type)
	}
	return nil
}

// close ends the session politely (best-effort Goodbye) and closes the
// socket.
func (c *conn) close() {
	c.nc.SetDeadline(time.Now().Add(time.Second))
	if err := c.wc.Send(wire.MsgClose, nil); err == nil {
		c.wc.Recv() // Goodbye
	}
	c.nc.Close()
}

// watchCtx interrupts blocking socket I/O when ctx is cancelled by
// moving the connection deadline into the past. The returned stop
// function must be called when the call completes; it reports whether
// the context fired (in which case the connection is poisoned and must
// be discarded).
func watchCtx(ctx context.Context, nc net.Conn) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	stopped := make(chan struct{})
	exited := make(chan struct{})
	fired := false // written by the watcher before it closes exited
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			nc.SetDeadline(time.Now())
			fired = true
		case <-stopped:
		}
	}()
	return func() bool {
		close(stopped)
		// Wait the watcher out: with both channels ready its select may
		// still pick ctx.Done(), and a deadline it sets after this
		// function cleared it would poison a connection that is by then
		// back in the pool.
		<-exited
		if !fired {
			nc.SetDeadline(time.Time{})
		}
		return fired
	}
}

// roundTrip sends one statement with its arguments and collects the
// full response.
func (c *conn) roundTrip(ctx context.Context, msgType byte, sql string, args []sqltypes.Value, sink func(sqltypes.Row) error) (*Rows, error) {
	payload, err := wire.EncodeStatement(wire.Statement{SQL: sql, Args: args, Trace: traceHeader(ctx)})
	if err != nil {
		return nil, err
	}
	return c.exchange(ctx, msgType, payload, sink)
}

// exchange sends one request frame and collects the full response.
// A *wire.Error return means the server failed the statement but the
// connection remains usable; any other error marks the connection
// broken, as does a context that fired at any point (the watcher moved
// the deadline into the past, and the response stream may be half
// read) — even when the response still completed. Callers consult
// c.broken to decide pool-vs-discard.
func (c *conn) exchange(ctx context.Context, msgType byte, payload []byte, sink func(sqltypes.Row) error) (*Rows, error) {
	start := time.Now()
	stop := watchCtx(ctx, c.nc)
	ctxDone := false
	defer func() {
		if !ctxDone {
			roundtripSeconds.Observe(time.Since(start).Seconds())
		}
	}()
	fail := func(err error) (*Rows, error) {
		c.broken = true
		if stop() {
			ctxDone = true
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("%w (%v)", cerr, err)
			}
		}
		return nil, err
	}
	if err := c.wc.Send(msgType, payload); err != nil {
		return fail(err)
	}
	out := &Rows{}
	for {
		f, err := c.wc.Recv()
		if err != nil {
			return fail(err)
		}
		switch f.Type {
		case wire.MsgSchema:
			if out.Schema, err = wire.DecodeSchema(f.Payload); err != nil {
				return fail(err)
			}
		case wire.MsgBatch:
			rows, err := wire.DecodeBatch(f.Payload)
			if err != nil {
				return fail(err)
			}
			if sink != nil {
				for _, r := range rows {
					if err := sink(r); err != nil {
						// The sink aborted: the server will keep
						// streaming, so poison the connection.
						return fail(err)
					}
				}
			} else {
				out.Rows = append(out.Rows, rows...)
			}
		case wire.MsgDone:
			d, err := wire.DecodeDone(f.Payload)
			if err != nil {
				return fail(err)
			}
			out.Affected, out.StatsJSON, out.TraceID = d.Affected, d.StatsJSON, d.TraceID
			if stop() {
				c.broken = true
			}
			return out, nil
		case wire.MsgSummaryResult:
			sr, err := wire.DecodeSummaryResult(f.Payload)
			if err != nil {
				return fail(err)
			}
			out.summary = &sr
			if stop() {
				c.broken = true
			}
			return out, nil
		case wire.MsgError:
			we, derr := wire.DecodeError(f.Payload)
			if derr != nil {
				return fail(derr)
			}
			if stop() {
				c.broken = true
			}
			countServerError(we)
			return nil, we
		default:
			return fail(fmt.Errorf("client: unexpected frame type %#x", f.Type))
		}
	}
}

// isConnLoss reports whether err is a connection-level failure (as
// opposed to a server-reported statement error), the condition under
// which an idempotent statement may be retried on a fresh connection.
func isConnLoss(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// isIdempotentSelect reports whether sql is a lone SELECT — safe to
// re-run after a lost connection because it modifies nothing.
func isIdempotentSelect(sql string) bool {
	trimmed := strings.TrimSpace(sql)
	if i := strings.IndexAny(trimmed, " \t\r\n("); i > 0 {
		trimmed = trimmed[:i]
	}
	return strings.EqualFold(trimmed, "SELECT") && !strings.Contains(sql, ";")
}

// Query runs one statement and materializes its result. Idempotent
// SELECTs that lose their connection mid-flight are retried on a fresh
// connection with exponential backoff.
func (p *Pool) Query(ctx context.Context, sql string) (*Rows, error) {
	return p.query(ctx, sql, nil)
}

func (p *Pool) query(ctx context.Context, sql string, args []sqltypes.Value) (*Rows, error) {
	return p.withRetry(ctx, isIdempotentSelect(sql), func(c *conn) (*Rows, error) {
		return c.roundTrip(ctx, wire.MsgQuery, sql, args, nil)
	})
}

// withRetry checks out a connection and runs one exchange, retrying
// idempotent work on a fresh connection after connection loss.
func (p *Pool) withRetry(ctx context.Context, idempotent bool, run func(c *conn) (*Rows, error)) (*Rows, error) {
	retries := 0
	if idempotent {
		retries = p.cfg.RetryAttempts
	}
	backoff := p.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			retriesTotal.Inc()
			if err := retrySleep(ctx, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
		}
		c, err := p.get(ctx)
		if err != nil {
			if lastErr != nil && isConnLoss(err) {
				lastErr = err
				continue // server may be coming back; retry dial too
			}
			return nil, err
		}
		rows, err := run(c)
		p.release(c)
		if err == nil {
			return rows, nil
		}
		if !isConnLoss(err) {
			return nil, err // server-reported error or cancelled ctx
		}
		lastErr = err
	}
	return nil, lastErr
}

// retrySleep waits out one backoff period before a retry, honoring
// ctx's cancellation and deadline mid-sleep. The actual sleep is
// jittered uniformly over [backoff/2, backoff): when a coordinator
// fans one statement out to many shards and a shard bounces, the
// sub-pools' retries would otherwise wake in lockstep and hammer the
// recovering server with a synchronized connection storm.
func retrySleep(ctx context.Context, backoff time.Duration) error {
	d := backoff
	if half := backoff / 2; half > 0 {
		d = half + time.Duration(rand.Int63n(int64(half)))
	}
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain <= 0 {
			return ctx.Err()
		} else if d > remain {
			d = remain // wake with the deadline, not after it
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueryStream runs one statement, delivering rows to sink as batches
// arrive instead of materializing them. It never retries: rows may
// already have been delivered when the connection fails. The schema is
// returned on completion (streamed results describe their schema last).
func (p *Pool) QueryStream(ctx context.Context, sql string, sink func(sqltypes.Row) error) (*sqltypes.Schema, error) {
	return p.stream(ctx, sql, nil, sink)
}

func (p *Pool) stream(ctx context.Context, sql string, args []sqltypes.Value, sink func(sqltypes.Row) error) (*sqltypes.Schema, error) {
	c, err := p.get(ctx)
	if err != nil {
		return nil, err
	}
	res, err := c.roundTrip(ctx, wire.MsgQuery, sql, args, sink)
	p.release(c)
	if err != nil {
		return nil, err
	}
	return res.Schema, nil
}

// Exec runs a semicolon-separated statement script, returning the last
// statement's result. Never retried — scripts are not assumed
// idempotent.
func (p *Pool) Exec(ctx context.Context, sql string) (*Rows, error) {
	c, err := p.get(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := c.roundTrip(ctx, wire.MsgExec, sql, nil, nil)
	p.release(c)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Stmt is a statement text for repeated parameterized execution. Each
// Query sends the text and its `?` arguments in one statement frame; the
// server plans the text once and serves every later request from its
// plan cache. Safe for concurrent use.
type Stmt struct {
	p   *Pool
	sql string
}

// Prepare returns a statement for repeated parameterized execution.
// Nothing is sent until Query, so errors (syntax, unknown columns, a
// wrong argument count) surface from Query.
func (p *Pool) Prepare(sql string) *Stmt {
	return &Stmt{p: p, sql: sql}
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sql }

// Query executes the statement with args bound to its `?` slots and
// materializes the result. Idempotent SELECTs retry on connection loss
// like Pool.Query.
func (s *Stmt) Query(ctx context.Context, args ...sqltypes.Value) (*Rows, error) {
	return s.p.query(ctx, s.sql, args)
}

// QueryStream executes the statement with args, delivering rows to
// sink as batches arrive. Never retried: rows may already have been
// delivered when a connection fails.
func (s *Stmt) QueryStream(ctx context.Context, sink func(sqltypes.Row) error, args ...sqltypes.Value) (*sqltypes.Schema, error) {
	return s.p.stream(ctx, s.sql, args, sink)
}

// Summary requests the server's n/L/Q sufficient statistics for one
// table over the push-down Summary frame: the cache-first read path a
// model build uses in-process, served over the wire. hit reports
// whether the server's summary cache avoided a scan; a nil NLQ with a
// nil error means the table has no qualifying rows. The request is
// idempotent and retried like a SELECT.
func (p *Pool) Summary(ctx context.Context, table string, columns []string, mt core.MatrixType) (*core.NLQ, bool, error) {
	req := wire.EncodeSummary(wire.Summary{Table: table, Columns: columns, Matrix: byte(mt)})
	rows, err := p.withRetry(ctx, true, func(c *conn) (*Rows, error) {
		return c.exchange(ctx, wire.MsgSummary, req, nil)
	})
	if err != nil {
		return nil, false, err
	}
	if rows.summary == nil {
		return nil, false, errors.New("client: server sent no summary result")
	}
	if rows.summary.Packed == "" {
		return nil, rows.summary.Hit, nil
	}
	nlq, err := core.Unpack(rows.summary.Packed)
	if err != nil {
		return nil, false, fmt.Errorf("client: bad summary payload: %w", err)
	}
	return nlq, rows.summary.Hit, nil
}

// Ping checks out a connection (dialing if needed) and round-trips a
// Ping frame.
func (p *Pool) Ping(ctx context.Context) error {
	c, err := p.get(ctx)
	if err != nil {
		return err
	}
	stop := watchCtx(ctx, c.nc)
	err = c.ping(p.cfg.DialTimeout)
	if stop() && err == nil {
		err = ctx.Err() // ctx fired: the connection deadline is poisoned
	}
	if err != nil {
		p.discard(c)
		return err
	}
	p.put(c)
	return nil
}
