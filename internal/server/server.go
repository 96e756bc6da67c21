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
	"encoding/json"
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
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/trace"
	"repro/internal/server/wire"
)

// Defaults for Config's zero values.
const (
	defaultMaxStatements    = 64
	defaultIdleTimeout      = 5 * time.Minute
	defaultWriteTimeout     = 30 * time.Second
	defaultHandshakeTimeout = 10 * time.Second
	defaultBatchRows        = 256
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
	// ExecScriptContext runs a semicolon-separated script.
	ExecScriptContext(ctx context.Context, sql string) (*exec.Result, error)
	// RunContext runs one parsed statement.
	RunContext(ctx context.Context, stmt sqlparser.Statement) (*exec.Result, error)
	// QueryStreamContext streams a SELECT's rows through sink.
	QueryStreamContext(ctx context.Context, sql string, sink exec.RowSink) (*sqltypes.Schema, *exec.Stats, error)
	// PrepareContext plans one statement for repeated execution. An
	// engine that cannot prepare (the coordinator) returns a typed
	// *wire.Error; pooled clients fall back to plain queries.
	PrepareContext(ctx context.Context, sql string) (*db.Prepared, error)
	// SummaryNLQ serves the n/L/Q summary read path (cache-first) for
	// the protocol-3 push-down Summary frame.
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
	// WriteTimeout is the per-frame write deadline. Default 30s.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the Hello/Welcome exchange. Default 10s.
	HandshakeTimeout time.Duration
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
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = defaultWriteTimeout
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = defaultHandshakeTimeout
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

	wc := wire.NewConn(nc)
	defer func() {
		// Account any bytes not yet flushed by a statement
		// (handshake, pings, the final close exchange).
		bytesSent.Add(wc.BytesWritten.Swap(0))
		bytesReceived.Add(wc.BytesRead.Swap(0))
	}()

	sess, err := s.handshake(nc, wc)
	if err != nil {
		return
	}
	defer s.sessions.remove(sess.id)
	defer sess.preps.closeAll()

	// The session context: cancelled when the server shuts down or —
	// via the reader goroutine — the moment the connection drops, so a
	// disconnect stops the session's in-flight partition scans.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	ctx = db.WithSession(ctx, db.Session{ID: sess.id, User: sess.user, RemoteAddr: sess.remoteAddr})

	clock := newIdleClock(nc, s.cfg.IdleTimeout)
	frames := make(chan incoming, 1)
	go s.readLoop(ctx, wc, frames, cancel, clock)

	for {
		select {
		case in := <-frames:
			if in.err != nil {
				return // disconnect, idle timeout or unreadable frame
			}
			err := s.dispatch(ctx, nc, wc, sess, in.f)
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
				s.sendError(nc, wc, &wire.Error{Code: wire.CodeShutdown, Message: "server shutting down"})
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

// handshake performs the Hello/Welcome exchange under its own deadline
// and registers the session.
func (s *Server) handshake(nc net.Conn, wc *wire.Conn) (*session, error) {
	nc.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	f, err := wc.Recv()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.MsgHello {
		s.sendError(nc, wc, &wire.Error{Code: wire.CodeProtocol, Message: fmt.Sprintf("expected Hello, got frame type %#x", f.Type)})
		return nil, errors.New("server: no hello")
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		s.sendError(nc, wc, &wire.Error{Code: wire.CodeProtocol, Message: err.Error()})
		return nil, err
	}
	if hello.Version < wire.MinProtocolVersion || hello.Version > wire.ProtocolVersion {
		err := &wire.Error{Code: wire.CodeProtocol, Message: fmt.Sprintf("protocol version %d not supported (server speaks %d through %d)", hello.Version, wire.MinProtocolVersion, wire.ProtocolVersion)}
		s.sendError(nc, wc, err)
		return nil, err
	}
	// The session speaks the client's offered version: a v1 client gets
	// exact v1 frames (its strict decoder rejects trailing bytes), a v2
	// client gets trace headers and Done trace IDs.
	sess := s.sessions.add(hello.User, nc.RemoteAddr().String(), hello.Version)
	if err := s.send(nc, wc, wire.MsgWelcome, wire.EncodeWelcome(wire.Welcome{SessionID: sess.id, Server: Version, Proto: sess.proto})); err != nil {
		s.sessions.remove(sess.id)
		return nil, err
	}
	return sess, nil
}

// beginStmtTrace establishes the statement's trace position: it adopts
// the client's TraceID off the wire header (or starts a fresh trace for
// v1 clients and header-less frames), wraps ctx so the engine's
// statement span parents at a new server span, and returns a finish
// func that attaches that server span — parented at the client's
// roundtrip span when one was sent — to the trace store. Attach is a
// no-op when tail sampling dropped the trace.
func (s *Server) beginStmtTrace(ctx context.Context, sess *session, th *wire.TraceHeader) (context.Context, string, func()) {
	var tid trace.TraceID
	var parent trace.SpanID
	if th != nil {
		tid, parent = th.TraceID, th.SpanID
	}
	if tid.IsZero() {
		tid = trace.NewTraceID()
	}
	serverSpan := trace.NewSpanID()
	ctx = trace.NewContext(ctx, trace.SpanContext{TraceID: tid, SpanID: serverSpan})
	start := time.Now()
	finish := func() {
		rec := trace.SpanRecord{
			SpanID:   serverSpan.String(),
			Name:     "server",
			Start:    start,
			Duration: time.Since(start),
		}
		if !parent.IsZero() {
			rec.ParentID = parent.String()
		}
		s.db.Traces().Attach(tid.String(), sess.id, rec)
	}
	return ctx, tid.String(), finish
}

// dispatch handles one request frame. A non-nil return ends the
// session.
func (s *Server) dispatch(ctx context.Context, nc net.Conn, wc *wire.Conn, sess *session, f wire.Frame) error {
	switch f.Type {
	case wire.MsgPing:
		return s.send(nc, wc, wire.MsgPong, nil)
	case wire.MsgClose:
		s.send(nc, wc, wire.MsgGoodbye, nil)
		return errCloseSession
	case wire.MsgQuery, wire.MsgExec:
		sql, th, err := wire.DecodeStatementTrace(f.Payload)
		if err != nil {
			s.sendError(nc, wc, &wire.Error{Code: wire.CodeProtocol, Message: err.Error()})
			return err
		}
		return s.runStatement(ctx, nc, wc, sess, sql, f.Type == wire.MsgExec, th)
	case wire.MsgPrepare:
		return s.handlePrepare(ctx, nc, wc, sess, f.Payload)
	case wire.MsgExecPrepared:
		return s.handleExecPrepared(ctx, nc, wc, sess, f.Payload)
	case wire.MsgClosePrepared:
		return s.handleClosePrepared(nc, wc, sess, f.Payload)
	case wire.MsgSummary:
		return s.handleSummary(ctx, nc, wc, sess, f.Payload)
	default:
		err := &wire.Error{Code: wire.CodeProtocol, Message: fmt.Sprintf("unexpected frame type %#x", f.Type)}
		s.sendError(nc, wc, err)
		return err
	}
}

// runStatement executes one statement under admission control and
// streams its result. Execution errors go back to the client as typed
// error frames and return nil; a non-nil return is a wire write
// failure, which ends the session immediately — a dead client's reads
// may never error (see readLoop), so the writer cannot rely on the
// reader to notice.
func (s *Server) runStatement(ctx context.Context, nc net.Conn, wc *wire.Conn, sess *session, sql string, script bool, th *wire.TraceHeader) error {
	start := time.Now()
	defer func() {
		statementSeconds.Observe(time.Since(start).Seconds())
		bytesSent.Add(wc.BytesWritten.Swap(0))
		bytesReceived.Add(wc.BytesRead.Swap(0))
	}()

	if s.draining.Load() {
		return s.sendError(nc, wc, &wire.Error{Code: wire.CodeShutdown, Message: "server shutting down"})
	}
	if err := s.adm.acquire(ctx); err != nil {
		return s.sendError(nc, wc, classify(err))
	}
	defer s.adm.release()
	statementsInflight.Inc()
	defer statementsInflight.Dec()
	sess.begin(sql)
	defer sess.end()

	ctx, tid, finish := s.beginStmtTrace(ctx, sess, th)
	defer finish()

	if script {
		res, err := s.db.ExecScriptContext(ctx, sql)
		if err != nil {
			return s.sendError(nc, wc, classify(err))
		}
		return s.sendResult(nc, wc, sess, tid, res)
	}

	// Single statement: SELECTs without ORDER BY/LIMIT stream straight
	// from the partition scans to the wire; everything else (DDL,
	// INSERT, ordered SELECTs) executes materialized.
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return s.sendError(nc, wc, classify(err))
	}
	if sel, ok := stmt.(*sqlparser.Select); ok && len(sel.OrderBy) == 0 && sel.Limit == nil {
		return s.streamQuery(ctx, nc, wc, sess, tid, sql)
	}
	res, err := s.db.RunContext(ctx, stmt)
	if err != nil {
		return s.sendError(nc, wc, classify(err))
	}
	return s.sendResult(nc, wc, sess, tid, res)
}

// streamQuery runs a streamable SELECT, flushing result batches as
// they fill. The schema frame follows the batches — the streaming
// executor (like the in-process QueryStream) reports the schema when
// the scan completes, and batches are self-describing. A non-nil
// return is a wire write failure that ends the session.
func (s *Server) streamQuery(ctx context.Context, nc net.Conn, wc *wire.Conn, sess *session, tid string, sql string) error {
	var (
		mu    sync.Mutex
		batch []sqltypes.Row
		sent  int64
		werr  error // first wire write error; stops the sink
	)
	flushLocked := func() error {
		if len(batch) == 0 {
			return nil
		}
		p, err := wire.EncodeBatch(batch)
		if err != nil {
			return err
		}
		batch = batch[:0]
		return s.send(nc, wc, wire.MsgBatch, p)
	}
	sink := func(r sqltypes.Row) error {
		mu.Lock()
		defer mu.Unlock()
		if werr != nil {
			return werr
		}
		batch = append(batch, r.Clone())
		sent++
		if len(batch) >= s.cfg.BatchRows {
			if werr = flushLocked(); werr != nil {
				return werr
			}
		}
		return nil
	}
	schema, stats, err := s.db.QueryStreamContext(ctx, sql, sink)
	if err != nil {
		if werr != nil {
			return werr // connection is gone; nothing to report to
		}
		return s.sendError(nc, wc, classify(err))
	}
	mu.Lock()
	err = flushLocked()
	rows := sent
	mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.send(nc, wc, wire.MsgSchema, wire.EncodeSchema(schema)); err != nil {
		return err
	}
	return s.send(nc, wc, wire.MsgDone, wire.EncodeDone(wire.Done{Rows: rows, StatsJSON: statsJSON(stats), TraceID: tid}, sess.proto))
}

// sendResult streams a materialized result: Schema (when the statement
// produced one), row batches, Done. A non-nil return is a wire write
// failure that ends the session.
func (s *Server) sendResult(nc net.Conn, wc *wire.Conn, sess *session, tid string, res *exec.Result) error {
	if res.Schema != nil {
		if err := s.send(nc, wc, wire.MsgSchema, wire.EncodeSchema(res.Schema)); err != nil {
			return err
		}
	}
	for off := 0; off < len(res.Rows); off += s.cfg.BatchRows {
		end := off + s.cfg.BatchRows
		if end > len(res.Rows) {
			end = len(res.Rows)
		}
		p, err := wire.EncodeBatch(res.Rows[off:end])
		if err != nil {
			return s.sendError(nc, wc, classify(err))
		}
		if err := s.send(nc, wc, wire.MsgBatch, p); err != nil {
			return err
		}
	}
	return s.send(nc, wc, wire.MsgDone, wire.EncodeDone(wire.Done{
		Affected:  res.Affected,
		Rows:      int64(len(res.Rows)),
		StatsJSON: statsJSON(res.Stats),
		TraceID:   tid,
	}, sess.proto))
}

// handleSummary serves the protocol-3 push-down summary request: the
// engine's cache-first n/L/Q read path over the wire. This is what a
// coordinator sends each shard for a model build — the shard does its
// one local scan (or a zero-scan cache hit) and ships back a packed
// partial the size of a d×d matrix, never the rows.
func (s *Server) handleSummary(ctx context.Context, nc net.Conn, wc *wire.Conn, sess *session, payload []byte) error {
	if sess.proto < wire.ProtocolV3 {
		err := &wire.Error{Code: wire.CodeProtocol, Message: fmt.Sprintf("Summary frames need protocol >= %d (session negotiated %d)", wire.ProtocolV3, sess.proto)}
		s.sendError(nc, wc, err)
		return err
	}
	req, err := wire.DecodeSummary(payload)
	if err != nil {
		s.sendError(nc, wc, &wire.Error{Code: wire.CodeProtocol, Message: err.Error()})
		return err
	}
	mt := core.MatrixType(req.Matrix)
	if mt != core.Diagonal && mt != core.Triangular && mt != core.Full {
		s.sendError(nc, wc, &wire.Error{Code: wire.CodeProtocol, Message: fmt.Sprintf("bad matrix type %d", req.Matrix)})
		return nil
	}
	if s.draining.Load() {
		return s.sendError(nc, wc, &wire.Error{Code: wire.CodeShutdown, Message: "server shutting down"})
	}
	if err := s.adm.acquire(ctx); err != nil {
		return s.sendError(nc, wc, classify(err))
	}
	defer s.adm.release()
	statementsInflight.Inc()
	defer statementsInflight.Dec()
	sess.begin("SUMMARY " + req.Table)
	defer sess.end()

	nlq, hit, err := s.db.SummaryNLQ(ctx, req.Table, req.Columns, mt)
	if err != nil {
		return s.sendError(nc, wc, classify(err))
	}
	res := wire.SummaryResult{Hit: hit}
	if nlq != nil && nlq.N > 0 {
		res.Packed = nlq.Pack()
	}
	return s.send(nc, wc, wire.MsgSummaryResult, wire.EncodeSummaryResult(res))
}

// send writes one frame under the configured write deadline.
func (s *Server) send(nc net.Conn, wc *wire.Conn, typ byte, payload []byte) error {
	nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return wc.Send(typ, payload)
}

// sendError reports a statement failure to the client; its non-nil
// return is a wire write failure, not the statement error.
func (s *Server) sendError(nc net.Conn, wc *wire.Conn, e *wire.Error) error {
	return s.send(nc, wc, wire.MsgError, wire.EncodeError(e))
}

// statsJSON marshals executor stats for the Done frame ("" when the
// statement did not scan).
func statsJSON(st *exec.Stats) string {
	if st == nil {
		return ""
	}
	b, err := json.Marshal(st)
	if err != nil {
		return ""
	}
	return string(b)
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
	if errors.Is(err, db.ErrPlanStale) {
		return &wire.Error{Code: wire.CodeStalePlan, Message: err.Error()}
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
