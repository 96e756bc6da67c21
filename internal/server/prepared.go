package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/internal/server/wire"
)

// maxPreparedPerSession bounds one session's live prepared handles; a
// client that leaks handles gets a typed error instead of growing the
// server without bound.
const maxPreparedPerSession = 64

// preparedSet is one session's prepared-statement registry. Handles
// are session-scoped: they mean nothing on any other connection, and
// the whole set is closed when the session ends.
type preparedSet struct {
	mu   sync.Mutex
	next int64
	m    map[int64]*db.Prepared
}

// put registers p under a fresh handle.
func (ps *preparedSet) put(p *db.Prepared) (int64, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.m == nil {
		ps.m = make(map[int64]*db.Prepared)
	}
	if len(ps.m) >= maxPreparedPerSession {
		return 0, fmt.Errorf("server: session holds %d prepared statements (limit); close some first", len(ps.m))
	}
	ps.next++
	ps.m[ps.next] = p
	return ps.next, nil
}

// get resolves a handle (nil when unknown or already closed).
func (ps *preparedSet) get(h int64) *db.Prepared {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.m[h]
}

// replace swaps the plan behind an existing handle (the server-side
// re-prepare after DDL staled the old plan). The displaced plan is
// returned for closing outside the lock.
func (ps *preparedSet) replace(h int64, p *db.Prepared) *db.Prepared {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	old := ps.m[h]
	if old == nil {
		return p // handle was closed concurrently; caller closes the new plan
	}
	ps.m[h] = p
	return old
}

// take removes and returns a handle's plan (nil when unknown).
func (ps *preparedSet) take(h int64) *db.Prepared {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p := ps.m[h]
	delete(ps.m, h)
	return p
}

// closeAll releases every plan; called when the session ends.
func (ps *preparedSet) closeAll() {
	ps.mu.Lock()
	m := ps.m
	ps.m = nil
	ps.mu.Unlock()
	for _, p := range m {
		p.Close()
	}
}

// handlePrepare plans one statement and returns its handle. Prepares
// skip admission control — they never scan — but respect draining.
func (s *Server) handlePrepare(ctx context.Context, l link, sess *session, payload []byte) error {
	sql, err := wire.DecodePrepare(payload)
	if err != nil {
		return l.protocolError(err)
	}
	if s.draining.Load() {
		return l.sendError(errShutdown)
	}
	p, err := s.db.PrepareContext(ctx, sql)
	if err != nil {
		return l.sendError(classify(err))
	}
	h, err := sess.preps.put(p)
	if err != nil {
		p.Close()
		return l.sendError(&wire.Error{Code: wire.CodeInternal, Message: err.Error()})
	}
	return l.send(wire.MsgPrepared, wire.EncodePrepared(wire.PreparedInfo{Handle: h, NumParams: p.NumParams()}))
}

// handleClosePrepared releases one handle; closing an unknown handle is
// a no-op (the client may race a session teardown), acknowledged with
// an empty Done either way.
func (s *Server) handleClosePrepared(l link, sess *session, payload []byte) error {
	h, err := wire.DecodeClosePrepared(payload)
	if err != nil {
		return l.protocolError(err)
	}
	if p := sess.preps.take(h); p != nil {
		p.Close()
	}
	return l.send(wire.MsgDone, wire.EncodeDone(wire.Done{}))
}

// execPrepared executes handle h's plan p. A plan staled by DDL is
// transparently re-prepared once from its SQL text — the epoch check
// fires before any row is produced, so nothing has reached sink yet; if
// the fresh plan is immediately stale again (DDL churn) the client gets
// the typed stale_plan error and decides.
func (s *Server) execPrepared(ctx context.Context, sess *session, h int64, p *db.Prepared, args []sqltypes.Value, sink exec.RowSink) (*exec.Result, error) {
	res, err := p.QueryContext(ctx, sink, args...)
	if !errors.Is(err, db.ErrPlanStale) {
		return res, err
	}
	np, err := s.db.PrepareContext(ctx, p.SQL())
	if err != nil {
		return nil, err
	}
	if old := sess.preps.replace(h, np); old != nil {
		old.Close()
	}
	return np.QueryContext(ctx, sink, args...)
}
