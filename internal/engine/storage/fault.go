package storage

import "fmt"

// Fault is a fault-injection hook for tests: it makes the storage
// layer's failure paths — a partition that cannot be opened, a scan
// that dies mid-stream, a write that fails after writing — reachable
// deterministically, so the executor's cancellation and rollback
// behavior can be asserted rather than hoped for. Production code
// never installs one.
type Fault struct {
	// Partition selects which partition faults; -1 matches all.
	Partition int
	// Err is the injected error; nil uses a generic one.
	Err error
	// ScanOpen fails ScanPartition before any row is delivered.
	ScanOpen bool
	// ScanAfterRows > 0 fails a scan of the partition after it has
	// delivered that many rows to the callback.
	ScanAfterRows int64
	// FlushClose makes a write's commit (Insert's, BulkLoader.Close's)
	// fail on the partition after its rows are written, exercising the
	// rollback path.
	FlushClose bool
	// TruncateFail makes the rollback truncate of a failed write itself
	// fail, leaving torn trailing bytes on disk; exercises the
	// corruption-marking path (the partition must refuse later scans).
	TruncateFail bool
	// SealMidChunk stops a seal half-way through writing a chunk, and
	// SealBeforeTail after appending its chunks, before replacing the
	// row log: where a crash could stop it, files left as they are.
	SealMidChunk, SealBeforeTail bool
}

func (f *Fault) matches(p int) bool {
	return f != nil && (f.Partition < 0 || f.Partition == p)
}

func (f *Fault) err() error {
	if f.Err != nil {
		return f.Err
	}
	return fmt.Errorf("storage: injected fault")
}

// SetFault installs a fault hook on the table; nil clears it.
func (t *Table) SetFault(f *Fault) {
	t.mu.Lock()
	t.fault = f
	t.mu.Unlock()
}

// ScannedRows returns the cumulative number of rows this table has
// delivered to scan callbacks since creation (or the last reset).
// Tests use it to prove that a failing partition cancels its sibling
// scans early instead of letting them run to completion.
func (t *Table) ScannedRows() int64 { return t.scanned.Load() }

// ResetScannedRows zeroes the scanned-row counter.
func (t *Table) ResetScannedRows() { t.scanned.Store(0) }
