package client

// Prepared statements over the wire: an explicit Stmt API for
// parameterized execution, plus the transparent auto-prepare path
// Pool.Query switches repeated SELECT texts onto. Handles are
// per-connection (the server scopes them to the session), so the pool
// never shares or replays a handle across connections — a retry on a
// fresh connection re-prepares from the SQL text.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine/sqltypes"
	"repro/internal/server/wire"
)

const (
	defaultAutoPrepareAfter = 2
	// maxPreparedPerConn bounds one connection's handles well under the
	// server's per-session limit; the least-recently-prepared is closed
	// to make room.
	maxPreparedPerConn = 32
	// maxTrackedStatements bounds the pool's statement-frequency map;
	// past it the counts reset (a workload with that many distinct
	// texts gets no benefit from preparing anyway).
	maxTrackedStatements = 4096
)

// notePrepareCandidate counts one execution of sql and reports whether
// it should run on the prepared path this time.
func (p *Pool) notePrepareCandidate(sql string) bool {
	if p.cfg.AutoPrepareAfter < 0 || !isIdempotentSelect(sql) {
		return false
	}
	p.stmtMu.Lock()
	defer p.stmtMu.Unlock()
	if len(p.stmtSeen) >= maxTrackedStatements {
		p.stmtSeen = nil
	}
	if p.stmtSeen == nil {
		p.stmtSeen = make(map[string]int)
	}
	p.stmtSeen[sql]++
	return p.stmtSeen[sql] > p.cfg.AutoPrepareAfter
}

// prepareRejected marks a server-side refusal to prepare (syntax or
// sema error, or a statement kind the planner won't prepare, like
// system-table reads). The connection is healthy; the transparent
// auto-prepare path falls back to a plain query on this error, while
// the explicit Stmt API surfaces it.
type prepareRejected struct{ err error }

func (e *prepareRejected) Error() string { return e.err.Error() }
func (e *prepareRejected) Unwrap() error { return e.err }

// notePrepareNever pins sql below the auto-prepare threshold forever;
// called when the server refuses to prepare it.
func (p *Pool) notePrepareNever(sql string) {
	p.stmtMu.Lock()
	defer p.stmtMu.Unlock()
	if p.stmtSeen == nil {
		p.stmtSeen = make(map[string]int)
	}
	p.stmtSeen[sql] = -1 << 30
}

// prepare returns this connection's handle for sql, preparing it on
// the server first if the connection doesn't hold one yet.
func (c *conn) prepare(ctx context.Context, sql string) (wire.PreparedInfo, error) {
	if pi, ok := c.prepared[sql]; ok {
		return pi, nil
	}
	if len(c.prepared) >= maxPreparedPerConn {
		for victim := range c.prepared {
			if err := c.closePrepared(ctx, victim); err != nil {
				return wire.PreparedInfo{}, err
			}
			break
		}
	}
	res, err := c.exchange(ctx, wire.MsgPrepare, wire.EncodePrepare(sql), nil)
	if err != nil {
		return wire.PreparedInfo{}, err
	}
	if res.prepared == nil {
		c.broken = true
		return wire.PreparedInfo{}, errors.New("client: server did not acknowledge prepare")
	}
	c.prepared[sql] = *res.prepared
	return *res.prepared, nil
}

// closePrepared releases this connection's handle for sql (no-op when
// it holds none).
func (c *conn) closePrepared(ctx context.Context, sql string) error {
	pi, ok := c.prepared[sql]
	if !ok {
		return nil
	}
	delete(c.prepared, sql)
	_, err := c.exchange(ctx, wire.MsgClosePrepared, wire.EncodeClosePrepared(pi.Handle), nil)
	return err
}

// execPrepared runs sql through PREPARE/EXECUTE on this connection,
// preparing on first use. A stale_plan rejection (DDL invalidated the
// server's plan, or the handle is gone) drops the handle and
// re-prepares once before giving up.
func (c *conn) execPrepared(ctx context.Context, sql string, args []sqltypes.Value, sink func(sqltypes.Row) error) (*Rows, error) {
	for attempt := 0; ; attempt++ {
		pi, err := c.prepare(ctx, sql)
		if err != nil {
			var we *wire.Error
			if errors.As(err, &we) {
				return nil, &prepareRejected{err}
			}
			return nil, err
		}
		if len(args) != pi.NumParams {
			return nil, fmt.Errorf("client: statement expects %d parameter(s), got %d", pi.NumParams, len(args))
		}
		payload, err := wire.EncodeExecPrepared(pi.Handle, args, traceHeader(ctx))
		if err != nil {
			return nil, err
		}
		rows, err := c.exchange(ctx, wire.MsgExecPrepared, payload, sink)
		var we *wire.Error
		if err != nil && errors.As(err, &we) && we.Code == wire.CodeStalePlan && attempt == 0 {
			delete(c.prepared, sql)
			continue
		}
		return rows, err
	}
}

// Stmt is a statement prepared against the pool: Query binds `?`
// parameter values and executes on whichever connection is checked
// out, preparing lazily per connection. Safe for concurrent use.
type Stmt struct {
	p   *Pool
	sql string
}

// Prepare returns a statement handle for repeated parameterized
// execution. Planning happens lazily on first use of each pooled
// connection, so errors (syntax, unknown columns) surface from Query.
func (p *Pool) Prepare(sql string) *Stmt {
	return &Stmt{p: p, sql: sql}
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sql }

// Query executes the statement with args bound to its `?` slots and
// materializes the result. Idempotent SELECTs retry on connection loss
// like Pool.Query; the fresh connection re-prepares automatically.
func (s *Stmt) Query(ctx context.Context, args ...sqltypes.Value) (*Rows, error) {
	return s.p.withRetry(ctx, isIdempotentSelect(s.sql), func(c *conn) (*Rows, error) {
		return c.execPrepared(ctx, s.sql, args, nil)
	})
}

// QueryStream executes the statement with args, delivering rows to
// sink as batches arrive. Never retried: rows may already have been
// delivered when a connection fails.
func (s *Stmt) QueryStream(ctx context.Context, sink func(sqltypes.Row) error, args ...sqltypes.Value) (*sqltypes.Schema, error) {
	c, err := s.p.get(ctx)
	if err != nil {
		return nil, err
	}
	res, err := c.execPrepared(ctx, s.sql, args, sink)
	s.p.release(c)
	if err != nil {
		return nil, err
	}
	return res.Schema, nil
}
