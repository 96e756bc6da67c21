package storage

import "repro/internal/engine/sqltypes"

// Observer receives write-path notifications from a Table. The summary
// catalog registers one per cached n/L/Q entry so every insert and
// bulk-load append is delta-merged into the summary at write time —
// the paper's additively mergeable sufficient statistics maintained
// incrementally instead of rediscovered by rescans.
//
// Every callback runs while the table's write lock is held.
// Implementations must be fast, must never call back into table
// methods that acquire the lock (the lock-free accessors NumRows and
// Epoch are safe), and must not retain the row slices they are handed
// — rows are only valid for the duration of the call.
type Observer interface {
	// OnAppend delivers rows a write in progress has staged for partition
	// p, before the write commits. Every write ends in exactly one
	// OnPublish (it committed) or OnInvalidate (it was rolled back, the
	// rows retracted), so folding rows eagerly is safe.
	OnAppend(p int, rows []sqltypes.Row)
	// OnPublish marks a committed mutation with the table's new row
	// count and epoch — the validity stamp observers compare their own
	// accounting against.
	OnPublish(rows, epoch int64)
	// OnInvalidate tells the observer its derived state is unrecoverable
	// (fault, rollback, truncate, drop): it must rebuild from a scan.
	OnInvalidate()
}

// Observe registers o and returns the table's validity stamp at the
// moment of registration. Registration and stamp read happen in one
// critical section, so o misses no mutation after the stamp: anything
// it has not seen via callbacks is covered by (rows, epoch).
func (t *Table) Observe(o Observer) (rows, epoch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.watchers = append(t.watchers, o)
	return t.rows.Load(), t.epoch.Load()
}

// Unobserve removes o; a no-op if o is not registered.
func (t *Table) Unobserve(o Observer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, w := range t.watchers {
		if w == o {
			t.watchers = append(t.watchers[:i], t.watchers[i+1:]...)
			return
		}
	}
}

// Epoch returns the table's mutation epoch, bumped on every published
// write, invalidation, truncate or drop. Lock-free, like NumRows, for
// the same reason: freshness checks run while writers may be blocked
// notifying observers.
func (t *Table) Epoch() int64 { return t.epoch.Load() }

// Sync runs fn with the current validity stamp while holding the write
// lock, excluding every concurrent mutation. The summary catalog
// installs rebuilt entries through it: fn compares the stamp against
// the one recorded before the rebuild scan, so an install and an
// insert that raced the scan cannot interleave unnoticed.
func (t *Table) Sync(fn func(rows, epoch int64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t.rows.Load(), t.epoch.Load())
}

func (t *Table) notifyAppendLocked(p int, rows []sqltypes.Row) {
	for _, w := range t.watchers {
		w.OnAppend(p, rows)
	}
}

func (t *Table) notifyPublishLocked() {
	if len(t.watchers) == 0 {
		return
	}
	rows, epoch := t.rows.Load(), t.epoch.Load()
	for _, w := range t.watchers {
		w.OnPublish(rows, epoch)
	}
}

func (t *Table) notifyInvalidateLocked() {
	for _, w := range t.watchers {
		w.OnInvalidate()
	}
}
