// Package exec is the engine's query executor. SELECT statements run
// partition-parallel: every table partition is scanned by its own
// goroutine (the paper's 20 Teradata threads), aggregate state is
// accumulated per partition and merged by a master — the aggregate
// UDF's phase-3 protocol — and scalar projections stream.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// Catalog resolves table names; implemented by the db package.
type Catalog interface {
	// Table returns the named table or an error including the name.
	Table(name string) (*storage.Table, error)
}

// Result is a fully materialized query result.
type Result struct {
	Schema   *sqltypes.Schema
	Rows     []sqltypes.Row
	Affected int64  // rows inserted, for INSERT
	Stats    *Stats // execution statistics; nil for statements without a scan
}

// Value returns the single value of a one-row one-column result, the
// shape aggregate-UDF queries produce.
func (r *Result) Value() (sqltypes.Value, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return sqltypes.Null, fmt.Errorf("exec: expected a 1×1 result, got %d×%d", len(r.Rows), r.Schema.Len())
	}
	return r.Rows[0][0], nil
}

// RowSink receives result rows one at a time: the form db's public
// streaming API hands to PreparedSelect.Run. Sinks may be invoked from
// multiple goroutines concurrently; implementations must synchronize.
// The rows arrive in bursts of up to batchRows per partition worker,
// and a failed scan drops the rows of its unfinished bursts (see
// PreparedSelect.Run).
type RowSink func(sqltypes.Row) error

// batchRows caps a result batch: a partition worker hands its sink the
// rows it projected at most this many at a time, so whatever the sink
// synchronizes on is taken once per batch rather than once per row.
const batchRows = 64

// batchSink is the executor's own delivery: one worker's batch of result
// rows, valid only for the call (the worker reuses them). Calls from
// different workers may be concurrent. It returns how many leading rows
// it accepted: all of them, unless it fails.
type batchSink func(rows []sqltypes.Row) (int, error)

// collector is a batchSink that materializes rows safely.
type collector struct {
	mu   sync.Mutex
	rows []sqltypes.Row
}

// add copies a batch into one allocation, outside the lock, and appends
// its rows under it.
func (c *collector) add(rows []sqltypes.Row) (int, error) {
	size := 0
	for _, r := range rows {
		size += len(r)
	}
	buf := make(sqltypes.Row, 0, size)
	for _, r := range rows {
		buf = append(buf, r...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rows {
		n := len(r)
		c.rows = append(c.rows, buf[:n:n])
		buf = buf[n:]
	}
	return len(rows), nil
}
