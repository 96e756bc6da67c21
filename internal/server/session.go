package server

import (
	"sync"
	"time"

	"repro/internal/engine/sqltypes"
)

// session is one connected client's registry entry: who they are,
// when they connected, and what they are running right now. The
// sys.sessions virtual table and the query ring's session columns are
// views over these.
type session struct {
	id         int64
	user       string
	remoteAddr string
	started    time.Time

	mu         sync.Mutex
	statements int64     // statements completed
	currentSQL string    // statement executing now ("" when idle)
	stmtStart  time.Time // when currentSQL began
}

// begin marks a statement as executing.
func (s *session) begin(sql string) {
	s.mu.Lock()
	s.currentSQL = sql
	s.stmtStart = time.Now()
	s.mu.Unlock()
}

// end marks the session idle again.
func (s *session) end() {
	s.mu.Lock()
	s.currentSQL = ""
	s.statements++
	s.mu.Unlock()
}

// sessionRegistry tracks the open sessions. Registration happens once
// per connection; sys.sessions scans snapshot under the same lock.
type sessionRegistry struct {
	mu   sync.Mutex
	next int64
	m    map[int64]*session
}

func newSessionRegistry() *sessionRegistry {
	return &sessionRegistry{m: make(map[int64]*session)}
}

func (r *sessionRegistry) add(user, remoteAddr string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s := &session{id: r.next, user: user, remoteAddr: remoteAddr, started: time.Now()}
	r.m[s.id] = s
	return s
}

func (r *sessionRegistry) remove(id int64) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}

func (r *sessionRegistry) snapshot() []*session {
	r.mu.Lock()
	out := make([]*session, 0, len(r.m))
	for _, s := range r.m {
		out = append(out, s)
	}
	r.mu.Unlock()
	return out
}

// sysSessions materializes the sys.sessions virtual table: one row per
// open session, including the statement each is executing right now.
// Registered on the fronted DB by Server.Start, so remote clients can
// `SELECT * FROM sys.sessions` like any other table.
func (r *sessionRegistry) sysSessions() ([]sqltypes.Column, []sqltypes.Row, error) {
	cols := []sqltypes.Column{
		{Name: "id", Type: sqltypes.TypeBigInt},
		{Name: "user_name", Type: sqltypes.TypeVarChar},
		{Name: "remote_addr", Type: sqltypes.TypeVarChar},
		{Name: "started", Type: sqltypes.TypeVarChar},
		{Name: "statements", Type: sqltypes.TypeBigInt},
		{Name: "current_sql", Type: sqltypes.TypeVarChar},
		{Name: "statement_ms", Type: sqltypes.TypeDouble},
	}
	sessions := r.snapshot()
	rows := make([]sqltypes.Row, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		statements, current, stmtStart := s.statements, s.currentSQL, s.stmtStart
		s.mu.Unlock()
		var runningMS float64
		if current != "" {
			runningMS = float64(time.Since(stmtStart)) / float64(time.Millisecond)
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewBigInt(s.id),
			sqltypes.NewVarChar(s.user),
			sqltypes.NewVarChar(s.remoteAddr),
			sqltypes.NewVarChar(s.started.Format(time.RFC3339Nano)),
			sqltypes.NewBigInt(statements),
			sqltypes.NewVarChar(current),
			sqltypes.NewDouble(runningMS),
		})
	}
	return cols, rows, nil
}
