package storage

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
)

// appendFlushSize is the one write-buffer policy: a touched partition's
// encoded rows collect in a slice that grows with what is staged and is
// written out whenever it reaches this size, so a one-row insert holds a
// row-sized buffer and a bulk load at most this much per partition.
const appendFlushSize = 1 << 16

// bulkBufSize is a bulk load's partition buffer, made whole when the
// partition takes its first row: appendFlushSize and room for the row
// that crosses it, so the buffer is not regrown on the way there.
const bulkBufSize = appendFlushSize + 4<<10

var errAppenderDone = errors.New("storage: write already committed or aborted")

// appender is the only code that moves rows into a table, in memory or
// on disk, and its commit the only place a write publishes. A write is
// begin → add* → commit or abort, and holds the table's write lock from
// begin to the end, so readers see the table before the write or after
// it, never part of it. Insert, BulkLoader and through them INSERT ...
// SELECT and CSV import are all this one sequence.
type appender struct {
	t    *Table
	base int64 // table row count at begin: row i routes to (base+i) mod P
	n    int64 // rows staged so far
	// parts is indexed by partition; one the write never routed a row
	// to stays zero and its file is never opened.
	parts []stagedPart
	row   sqltypes.Row // an on-disk bulk load validates every row into this one
	bulk  bool         // a BulkLoader's write
	err   error        // first failure (or errAppenderDone): add refuses, commit aborts
	done  bool         // committed or aborted; the lock is released
}

// stagedPart is one partition's share of a write. In memory the rows
// are appended to the partition's slice directly — behind the lock, and
// beyond the partition's published count until commit — so only rows is
// used.
type stagedPart struct {
	rows  int64    // rows staged here
	bytes int64    // their encoded size
	f     *os.File // the row log, opened by the first row routed here
	size  int64    // the row log's size before the write
	buf   []byte   // encoded rows not yet written to f
}

// begin starts a write: it takes the table lock — released by commit or
// abort, one of which the caller must reach — and refuses a table with
// a corrupt partition, whose torn tail an append would bury.
func (t *Table) begin() (*appender, error) {
	t.mu.Lock()
	for p := range t.parts {
		if c := t.parts[p].corrupt; c != nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("storage: table %q partition %d is corrupt: %w", t.name, p, c)
		}
	}
	return &appender{t: t, base: t.rows.Load(), parts: make([]stagedPart, len(t.parts))}, nil
}

// fail records the write's first failure; from then on add refuses and
// commit rolls back, so a write with a bad row lands nothing.
func (a *appender) fail(err error) error {
	if a.err == nil {
		a.err = err
	}
	return a.err
}

// add stages one row, already validated and owned by the table: routed
// round-robin, encoded behind its partition's file (opened, and its
// size noted, on the first row routed there) or appended to its memory
// slice, where no reader sees it until commit publishes the write.
//
//statlint:locked Table.mu
func (a *appender) add(r sqltypes.Row) error {
	if a.err != nil {
		return a.err
	}
	t := a.t
	p := int((a.base + a.n) % int64(len(t.parts)))
	s := &a.parts[p]
	if t.dir == "" {
		t.parts[p].mem = append(t.parts[p].mem, r)
	} else {
		if s.f == nil {
			if err := s.open(t.parts[p].path); err != nil {
				return a.fail(err)
			}
			if a.bulk {
				s.buf = make([]byte, 0, bulkBufSize)
			}
		}
		buf, err := encodeRow(s.buf, r)
		if err != nil {
			return a.fail(err)
		}
		s.bytes += int64(len(buf) - len(s.buf))
		s.buf = buf
		if len(s.buf) >= appendFlushSize {
			if err := s.flush(); err != nil {
				return a.fail(err)
			}
		}
	}
	s.rows++
	a.n++
	return nil
}

// open opens the partition's row log for appending and notes the size
// abort would truncate it back to.
func (s *stagedPart) open(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	s.f, s.size = f, st.Size()
	return nil
}

func (s *stagedPart) flush() error {
	_, err := s.f.Write(s.buf)
	s.buf = s.buf[:0]
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// commit is the write's one commit point. It writes out and closes
// every touched partition; if that, or any add before it, failed, the
// write is aborted and the failure returned. Otherwise the partitions'
// counts and sizes and the table count advance together, inside the
// critical section begin opened. The epoch stays: the write appended.
// Then every touched partition seals its tail's whole chunks: the rows
// are committed whether or not that succeeds, and a seal that fails
// leaves them in the row log for the next one.
//
//statlint:locked Table.mu
func (a *appender) commit() error {
	if a.done {
		return a.err
	}
	t := a.t
	for p := range a.parts {
		if s := &a.parts[p]; a.err == nil && s.f != nil {
			a.err = s.flush()
			if flt := t.fault; a.err == nil && flt.matches(p) && flt.FlushClose {
				a.err = flt.err()
			}
			if a.err == nil {
				if err := s.f.Close(); err != nil {
					a.err = fmt.Errorf("storage: %w", err)
				}
			}
		}
	}
	if a.err != nil {
		a.abort()
		return a.err
	}
	for p := range a.parts {
		t.parts[p].rows += a.parts[p].rows
		t.parts[p].size += a.parts[p].bytes
	}
	t.rows.Add(a.n)
	obs.RowsInserted.Add(a.n)
	for p := range a.parts {
		if a.parts[p].f != nil {
			_ = t.sealLocked(p, false)
		}
	}
	a.finish()
	return nil
}

// abort retracts the write: every touched partition goes back to its
// size at begin and nothing is published, so the table — its counts,
// its epoch, every Mark in it — is as begin found it. A file whose
// truncate fails (or is failed by the TruncateFail fault) keeps torn
// bytes, so its partition is marked corrupt: the epoch moves and every
// later scan of it, and every later write to the table, is refused
// loudly. After commit or a first abort it is a no-op, so callers may
// defer it.
//
//statlint:locked Table.mu
func (a *appender) abort() {
	if a.done {
		return
	}
	t := a.t
	for p := range a.parts {
		s := &a.parts[p]
		if t.dir == "" {
			clear(t.parts[p].mem[t.parts[p].rows:])
			t.parts[p].mem = t.parts[p].mem[:t.parts[p].rows]
		}
		if s.f == nil {
			continue
		}
		s.f.Close() // again is harmless; the truncate decides the partition's fate
		err := os.Truncate(t.parts[p].path, s.size)
		if flt := t.fault; err == nil && flt.matches(p) && flt.TruncateFail {
			err = flt.err()
		}
		if err != nil {
			t.parts[p].corrupt = fmt.Errorf("storage: rollback truncate of table %q partition %d to %d bytes failed: %w",
				t.name, p, s.size, err)
			t.epoch.Add(1)
		}
	}
	a.finish()
}

func (a *appender) finish() {
	a.done = true
	a.fail(errAppenderDone)
	a.t.mu.Unlock()
}

// Insert appends rows, distributing them round-robin over partitions:
// all of them or, on any failure, none. It is safe for concurrent use.
func (t *Table) Insert(rows ...sqltypes.Row) error {
	if len(rows) == 0 {
		return nil
	}
	// Validate before taking the lock: a bad row costs readers nothing.
	checked := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		checked[i] = make(sqltypes.Row, t.schema.Len())
		if err := t.validate(checked[i], r); err != nil {
			return err
		}
	}
	a, err := t.begin()
	if err != nil {
		return err
	}
	for _, r := range checked {
		if a.add(r) != nil {
			break // commit aborts and returns the failure
		}
	}
	return a.commit()
}

// BulkLoader streams a row set of any size into a table; the synthetic
// data generator, CSV import and INSERT ... SELECT load through it. It
// holds the table's write lock from NewBulkLoader until Close or Abort,
// so the caller must reach one of them and must not read the table in
// between.
type BulkLoader struct{ a *appender }

// NewBulkLoader opens a loader. Rows become visible, all at once, only
// when Close succeeds.
func (t *Table) NewBulkLoader() (*BulkLoader, error) {
	a, err := t.begin()
	if err != nil {
		return nil, err
	}
	a.bulk = true
	return &BulkLoader{a: a}, nil
}

// Add appends one row to the load; the caller may reuse row afterwards.
// A table in memory stores the one validated copy made here; a table on
// disk encodes the row at once and retains nothing, so every row of the
// load is validated into the same scratch. A row the table rejects
// fails the whole load: later Adds are refused and Close lands nothing.
//
//statlint:locked Table.mu
func (bl *BulkLoader) Add(row sqltypes.Row) error {
	a := bl.a
	if a.row == nil || !a.t.OnDisk() {
		a.row = make(sqltypes.Row, a.t.schema.Len())
	}
	if err := a.t.validate(a.row, row); err != nil {
		return a.fail(err)
	}
	return a.add(a.row)
}

// Close commits the load: every row added becomes visible, or — when
// an Add or the final flush failed — none does and that first failure
// is returned.
//
//statlint:locked Table.mu
func (bl *BulkLoader) Close() error { return bl.a.commit() }

// Abort abandons the load, leaving the table as NewBulkLoader found it.
// It is a no-op after Close or an earlier Abort.
//
//statlint:locked Table.mu
func (bl *BulkLoader) Abort() { bl.a.abort() }
