// Package server is the engine's network serving layer: a TCP server
// speaking the wire protocol in internal/server/wire, fronting an
// embedded db.DB the way the paper's Teradata instance fronts its
// clients — queries and small result sets cross the network, the heavy
// scans never leave the server.
//
// Each connection is one session: a handshake (Hello/Welcome), then a
// strict request/response loop of statements. The server enforces
// per-connection read/write deadlines and an idle timeout, cancels a
// session's in-flight statement the moment its connection drops (the
// context is threaded into the cancellation-aware executor), and
// applies admission control — a configurable bound on concurrent
// statements with a bounded wait queue, beyond which statements fail
// fast with the typed "server busy" error.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sema"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/trace"
	"repro/internal/server/wire"
)

// Defaults for Config's zero values.
const (
	defaultMaxStatements = 64
	defaultIdleTimeout   = 5 * time.Minute
	defaultBatchRows     = 256
)

const (
	// writeTimeout is the per-frame write deadline.
	writeTimeout = 30 * time.Second
	// handshakeTimeout bounds the Hello/Welcome exchange.
	handshakeTimeout = 10 * time.Second
)

// Version is the server banner sent in the Welcome frame.
const Version = "twmd/1 (statsudf engine)"

// Engine is the statement surface the server fronts. The embedded
// *db.DB satisfies it directly; the cluster coordinator implements it
// over a shard fleet, which is how one twmd binary serves both roles
// with the same session, admission and tracing machinery.
type Engine interface {
	// RegisterSysTable installs an instance-specific sys.* virtual
	// table (the server registers sys.sessions at Start).
	RegisterSysTable(name string, fn db.SysTableFunc) error
	// QueryContext runs one statement from its text, args bound to its
	// `?` slots; an embedded database keeps the plan in its plan cache
	// for the next request with the same text. A SELECT's rows go to
	// sink — streamed from the scan when the plan allows, replayed in
	// order when ORDER BY/LIMIT had to materialize first — and the
	// Result carries the schema, stats and affected count. An engine
	// that materializes every result anyway (the coordinator) may leave
	// the rows in the Result instead.
	QueryContext(ctx context.Context, sql string, sink exec.RowSink, args ...sqltypes.Value) (*exec.Result, error)
	// ExecScriptContext runs a semicolon-separated script and returns
	// the last statement's materialized result.
	ExecScriptContext(ctx context.Context, sql string) (*exec.Result, error)
	// SummaryNLQ serves the n/L/Q summary read path (cache-first) for
	// the push-down Summary frame.
	SummaryNLQ(ctx context.Context, table string, cols []string, mt core.MatrixType) (*core.NLQ, bool, error)
	// Traces is the trace store session/server spans attach to.
	Traces() *trace.Store
}

// Config tunes a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. ":7443", "127.0.0.1:0").
	Addr string
	// MaxStatements bounds concurrently executing statements across
	// all sessions. Default 64.
	MaxStatements int
	// MaxWaiting bounds the admission wait queue; statements beyond
	// MaxStatements+MaxWaiting fail fast with the typed busy error.
	// Negative means no queue (fail fast at MaxStatements); zero
	// selects MaxStatements (a queue as deep as the execution limit).
	MaxWaiting int
	// IdleTimeout closes connections with no statement and no traffic
	// for this long. Default 5m.
	IdleTimeout time.Duration
	// BatchRows is the number of result rows per wire batch. Default 256.
	BatchRows int
}

func (c Config) withDefaults() Config {
	if c.MaxStatements <= 0 {
		c.MaxStatements = defaultMaxStatements
	}
	switch {
	case c.MaxWaiting < 0:
		c.MaxWaiting = 0
	case c.MaxWaiting == 0:
		c.MaxWaiting = c.MaxStatements
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = defaultIdleTimeout
	}
	if c.BatchRows <= 0 {
		c.BatchRows = defaultBatchRows
	}
	return c
}

// Server is a wire-protocol front end over one engine (an embedded
// database or a cluster coordinator).
type Server struct {
	db  Engine
	cfg Config

	adm      *admission
	sessions *sessionRegistry

	baseCtx context.Context
	cancel  context.CancelFunc

	ln       net.Listener
	wg       sync.WaitGroup
	draining atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// New builds a server over d. Call Start to begin listening.
func New(d Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:       d,
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxStatements, cfg.MaxWaiting),
		sessions: newSessionRegistry(),
		baseCtx:  ctx,
		cancel:   cancel,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Start binds the listen address, registers the sys.sessions virtual
// table on the fronted database, and begins accepting connections in
// the background. The bound address is available from Addr (useful
// with ":0").
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.serve(ln)
}

// serve is Start past the listen: it takes over ln.
func (s *Server) serve(ln net.Listener) error {
	s.ln = ln
	if err := s.db.RegisterSysTable("sys.sessions", s.sessions.sysSessions); err != nil {
		ln.Close()
		return err
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal accept error.
			return
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(nc)
	}
}

// Shutdown drains the server: it stops accepting connections, cancels
// every in-flight statement through its context, and waits for the
// session handlers to unwind (or for ctx to expire, at which point
// remaining connections are force-closed).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.cancel() // cancels every session's statement context
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Close stops the server immediately: no draining, connections are
// force-closed.
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.cancel()
	s.closeConns()
	s.wg.Wait()
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
}

// incoming is one frame (or terminal read error) from the reader
// goroutine.
type incoming struct {
	f   wire.Frame
	err error
}

// idleClock manages a connection's idle read deadline across the two
// goroutines that share it: the reader arms the clock while waiting for
// a frame and suspends it the moment one arrives; the handler restarts
// it when the frame has been handled. The count (rather than a bool)
// makes the handoff safe against a pipelining client: a frame read
// ahead while the previous statement still executes keeps the clock
// suspended until the handler has caught up.
type idleClock struct {
	mu       sync.Mutex
	nc       net.Conn
	timeout  time.Duration
	inflight int // frames delivered to the handler but not yet handled
}

func newIdleClock(nc net.Conn, timeout time.Duration) *idleClock {
	c := &idleClock{nc: nc, timeout: timeout}
	nc.SetReadDeadline(time.Now().Add(timeout))
	return c
}

// begin (reader side) marks a frame in flight and suspends the clock.
func (c *idleClock) begin() {
	c.mu.Lock()
	c.inflight++
	c.nc.SetReadDeadline(time.Time{})
	c.mu.Unlock()
}

// end (handler side) marks a frame handled; once nothing is in flight
// the clock restarts.
func (c *idleClock) end() {
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	}
	c.mu.Unlock()
}

// staleTimeout reports whether a read timeout came from a deadline made
// stale by an in-flight frame. It clears the stale deadline under the
// lock so the reader blocks cleanly instead of spinning on instant
// timeouts until the statement completes.
func (c *idleClock) staleTimeout() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight == 0 {
		return false
	}
	c.nc.SetReadDeadline(time.Time{})
	return true
}

// errCloseSession signals a clean client-requested close.
var errCloseSession = errors.New("server: session closed")

// handleConn runs one session: handshake, then the request loop.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	connections.Inc()
	sessionsActive.Inc()
	defer sessionsActive.Dec()

	l := link{nc: nc, wc: wire.NewConn(nc)}
	// Whatever no dispatched frame billed: a handshake that went no
	// further, the shutdown notice.
	defer l.flushBytes()

	sess, err := s.handshake(l)
	if err != nil {
		return
	}
	defer s.sessions.remove(sess.id)

	// The session context: cancelled when the server shuts down or —
	// via the reader goroutine — the moment the connection drops, so a
	// disconnect stops the session's in-flight partition scans.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	ctx = db.WithSession(ctx, db.Session{ID: sess.id, User: sess.user, RemoteAddr: sess.remoteAddr})

	clock := newIdleClock(nc, s.cfg.IdleTimeout)
	frames := make(chan incoming, 1)
	go s.readLoop(ctx, l.wc, frames, cancel, clock)

	for {
		select {
		case in := <-frames:
			if in.err != nil {
				return // disconnect, idle timeout or unreadable frame
			}
			err := s.dispatch(ctx, l, sess, in.f)
			clock.end()
			if err != nil {
				return
			}
		case <-ctx.Done():
			// Server shutdown, or the reader cancelled on disconnect.
			// Selecting on the session ctx (not just frames) means a
			// reader whose terminal error was dropped — because a frame
			// was already buffered — still unwinds the session.
			if s.baseCtx.Err() != nil {
				l.sendError(errShutdown)
			}
			return
		}
	}
}

// readLoop is the connection's only reader. It reads ahead while a
// statement executes purely to detect disconnects: a read error while
// a frame is in flight cancels the session context, which stops the
// executor's partition scans. Read deadlines double as the idle
// timeout, suspended by the idleClock while frames are in flight so a
// slow query with a silently waiting client is not mistaken for an
// idle session.
func (s *Server) readLoop(ctx context.Context, wc *wire.Conn, frames chan<- incoming, cancel context.CancelFunc, clock *idleClock) {
	for {
		f, err := wc.Recv()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && clock.staleTimeout() {
				// Idle deadline fired just as a statement began; the
				// clock cleared it — keep reading.
				continue
			}
			cancel()
			// Best-effort delivery: the handler may be mid-statement
			// with a frame already buffered, so never block here — the
			// cancelled ctx unwinds the handler regardless.
			select {
			case frames <- incoming{err: err}:
			default:
			}
			return
		}
		clock.begin()
		select {
		case frames <- incoming{f: f}:
		case <-ctx.Done():
			return // handler unwinding; don't block on a dead channel
		}
	}
}

// link is one session's connection: the socket, for deadlines, and its
// framed view.
type link struct {
	nc net.Conn
	wc *wire.Conn
}

// send writes one frame under the write deadline and flushes it, with
// any frames buffered before it, in one socket write.
func (l link) send(typ byte, payload []byte) error { return l.write(typ, payload, true) }

// write sends one frame (flush) or only buffers it for the next send
// (see wire.Conn.Buffer), under the write deadline either way: a frame
// that overflows the buffer writes at once.
func (l link) write(typ byte, payload []byte, flush bool) error {
	l.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if flush {
		return l.wc.Send(typ, payload)
	}
	return l.wc.Buffer(typ, payload)
}

// sendError reports a failure to the client; its non-nil return is a
// wire write failure, not the reported error.
func (l link) sendError(e *wire.Error) error {
	return l.send(wire.MsgError, wire.EncodeError(e))
}

// protocolError reports a frame the server could not decode and returns
// the decode error, which ends the session: after a malformed frame the
// two ends no longer agree where the next one starts.
func (l link) protocolError(err error) error {
	l.sendError(&wire.Error{Code: wire.CodeProtocol, Message: err.Error()})
	return err
}

// flushBytes moves the connection's byte counts into the server
// metrics.
func (l link) flushBytes() {
	bytesSent.Add(l.wc.BytesWritten.Swap(0))
	bytesReceived.Add(l.wc.BytesRead.Swap(0))
}

var errShutdown = &wire.Error{Code: wire.CodeShutdown, Message: "server shutting down"}

// handshake performs the Hello/Welcome exchange under its own deadline
// and registers the session.
func (s *Server) handshake(l link) (*session, error) {
	l.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	f, err := l.wc.Recv()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.MsgHello {
		return nil, l.protocolError(fmt.Errorf("expected Hello, got frame type %#x", f.Type))
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return nil, l.protocolError(err)
	}
	if hello.Version != wire.ProtocolVersion {
		return nil, l.protocolError(fmt.Errorf("protocol version %d not supported (server speaks %d)", hello.Version, wire.ProtocolVersion))
	}
	sess := s.sessions.add(hello.User, l.nc.RemoteAddr().String())
	if err := l.send(wire.MsgWelcome, wire.EncodeWelcome(wire.Welcome{SessionID: sess.id, Server: Version, Proto: wire.ProtocolVersion})); err != nil {
		s.sessions.remove(sess.id)
		return nil, err
	}
	return sess, nil
}

// dispatch handles one request frame. A non-nil return ends the
// session.
func (s *Server) dispatch(ctx context.Context, l link, sess *session, f wire.Frame) error {
	// Every frame is billed for the bytes it moved, statement or not.
	defer l.flushBytes()
	switch f.Type {
	case wire.MsgPing:
		return l.send(wire.MsgPong, nil)
	case wire.MsgClose:
		l.send(wire.MsgGoodbye, nil)
		return errCloseSession
	case wire.MsgQuery, wire.MsgExec:
		st, err := wire.DecodeStatement(f.Payload)
		if err != nil {
			return l.protocolError(err)
		}
		return s.statement(ctx, l, sess, st.SQL, st.Trace, func(ctx context.Context, w *resultWriter) error {
			if f.Type == wire.MsgQuery {
				return w.result(s.db.QueryContext(ctx, st.SQL, w.sink, st.Args...))
			}
			if len(st.Args) > 0 {
				return &wire.Error{Code: wire.CodeProtocol, Message: "a script takes no ? arguments"}
			}
			return w.result(s.db.ExecScriptContext(ctx, st.SQL))
		})
	case wire.MsgSummary:
		// What a coordinator sends each shard for a model build: the
		// shard does its one local scan (or a zero-scan cache hit) and
		// ships back a packed partial the size of a d×d matrix, never
		// the rows.
		req, err := wire.DecodeSummary(f.Payload)
		if err != nil {
			return l.protocolError(err)
		}
		mt := core.MatrixType(req.Matrix)
		if mt != core.Diagonal && mt != core.Triangular && mt != core.Full {
			return l.sendError(&wire.Error{Code: wire.CodeProtocol, Message: fmt.Sprintf("bad matrix type %d", req.Matrix)})
		}
		return s.statement(ctx, l, sess, "SUMMARY "+req.Table, wire.TraceHeader{}, func(ctx context.Context, w *resultWriter) error {
			nlq, hit, err := s.db.SummaryNLQ(ctx, req.Table, req.Columns, mt)
			if err != nil {
				return err
			}
			res := wire.SummaryResult{Hit: hit}
			if nlq != nil && nlq.N > 0 {
				res.Packed = nlq.Pack()
			}
			return w.write(wire.MsgSummaryResult, wire.EncodeSummaryResult(res), true)
		})
	default:
		return l.protocolError(fmt.Errorf("unexpected frame type %#x", f.Type))
	}
}

// statement is the envelope every request that executes runs inside —
// Query, Exec and Summary alike: the draining check,
// admission control, the in-flight gauge, the session's current
// statement, the server span (parented at the client's roundtrip span
// when th names one, a fresh trace otherwise) and the latency
// histogram, which therefore covers admission wait, execution and
// result transmission. run executes the request and writes its reply
// through w; the error it returns is the statement's, reported to the
// client as a typed error frame. A non-nil return from statement is a
// wire write failure, which ends the session immediately — a dead
// client's reads may never error (see readLoop), so the writer cannot
// rely on the reader to notice.
func (s *Server) statement(ctx context.Context, l link, sess *session, label string, th wire.TraceHeader, run func(context.Context, *resultWriter) error) error {
	start := time.Now()
	defer func() { statementSeconds.Observe(time.Since(start).Seconds()) }()

	if s.draining.Load() {
		return l.sendError(errShutdown)
	}
	if err := s.adm.acquire(ctx); err != nil {
		if s.draining.Load() {
			// Close cancelled the wait: the server is going away, which
			// is not the statement's own cancellation.
			err = errShutdown
		}
		return l.sendError(classify(err))
	}
	defer s.adm.release()
	statementsInflight.Inc()
	defer statementsInflight.Dec()
	sess.begin(label)
	defer sess.end()

	tid := trace.TraceID(th.TraceID)
	if tid.IsZero() {
		tid = trace.NewTraceID()
	}
	w := &resultWriter{l: l, batchRows: s.cfg.BatchRows, tid: tid.String()}
	span, spanStart := trace.NewSpanID(), time.Now()
	// Attach is a no-op when tail sampling dropped the trace.
	defer func() {
		rec := trace.SpanRecord{SpanID: span.String(), Name: "server", Start: spanStart, Duration: time.Since(spanStart)}
		if parent := trace.SpanID(th.SpanID); !parent.IsZero() {
			rec.ParentID = parent.String()
		}
		s.db.Traces().Attach(w.tid, sess.id, rec)
	}()
	ctx = trace.NewContext(ctx, trace.SpanContext{TraceID: tid, SpanID: span})

	err := run(ctx, w)
	if w.werr != nil {
		return w.werr // connection is gone; nothing to report to
	}
	if err != nil {
		return l.sendError(classify(err))
	}
	return nil
}

// resultWriter is the one way a reply leaves a statement: rows gather
// into Batch frames — from the engine's partition workers concurrently,
// or replayed from a materialized Result — then Schema when the
// statement has one, then Done. The schema follows the batches because
// a streamed scan reports it only on completion; batches are
// self-describing. Each full batch goes out as it fills, so a long
// scan streams; the tail (the last batch, Schema and Done) leaves in
// one socket write. The first wire write failure sticks in werr and
// fails every later write, which stops the scan feeding the sink.
type resultWriter struct {
	l         link
	batchRows int
	tid       string

	mu    sync.Mutex
	batch []sqltypes.Row
	rows  int64
	werr  error
}

// sink is the exec.RowSink handed to the engine; the executor reuses
// its row buffer, so each row is cloned.
func (w *resultWriter) sink(r sqltypes.Row) error { return w.add(r.Clone()) }

func (w *resultWriter) add(r sqltypes.Row) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return w.werr
	}
	w.batch = append(w.batch, r)
	w.rows++
	if len(w.batch) >= w.batchRows {
		return w.batchLocked(true)
	}
	return nil
}

// batchLocked writes the gathered rows as one Batch frame, flushed or
// buffered for the reply's tail.
func (w *resultWriter) batchLocked(flush bool) error {
	if len(w.batch) == 0 {
		return nil
	}
	p, err := wire.EncodeBatch(w.batch)
	if err != nil {
		return err
	}
	w.batch = w.batch[:0]
	return w.write(wire.MsgBatch, p, flush)
}

// write sends (flush) or buffers one frame unless an earlier write
// already failed.
func (w *resultWriter) write(typ byte, payload []byte, flush bool) error {
	if w.werr == nil {
		w.werr = w.l.write(typ, payload, flush)
	}
	return w.werr
}

// result finishes a statement from the engine's return values: err
// passes through to the envelope; otherwise rows the engine returned
// rather than sank are batched, and the last batch, Schema and Done
// close the reply in one flush.
func (w *resultWriter) result(res *exec.Result, err error) error {
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		if err := w.add(r); err != nil {
			return err
		}
	}
	w.mu.Lock()
	err = w.batchLocked(false)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if res.Schema != nil {
		if err := w.write(wire.MsgSchema, wire.EncodeSchema(res.Schema), false); err != nil {
			return err
		}
	}
	return w.write(wire.MsgDone, wire.EncodeDone(wire.Done{Affected: res.Affected, Rows: w.rows, StatsJSON: statsJSON(res.Stats), TraceID: w.tid}), true)
}

// statsJSON encodes executor stats for the Done frame ("" when the
// statement did not scan); the bytes are json.Marshal's.
func statsJSON(st *exec.Stats) string {
	if st == nil {
		return ""
	}
	return string(st.AppendJSON(make([]byte, 0, 2048)))
}

// classify maps an execution error to its typed wire error, so the
// client sees what kind of failure happened (and the full positioned
// sema diagnostics when analysis rejected the statement).
func classify(err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &wire.Error{Code: wire.CodeCancelled, Message: err.Error()}
	}
	var list sema.ErrorList
	var diag sema.Diagnostic
	if errors.As(err, &list) || errors.As(err, &diag) {
		// The code is already the "sema" prefix; don't render it twice.
		return &wire.Error{Code: wire.CodeSema, Message: strings.TrimPrefix(err.Error(), "sema: ")}
	}
	if strings.HasPrefix(err.Error(), "sqlparser:") {
		return &wire.Error{Code: wire.CodeParse, Message: err.Error()}
	}
	return &wire.Error{Code: wire.CodeInternal, Message: err.Error()}
}
