package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/server/wire"
)

// shardUnavailable wraps a transport failure against one shard in the
// typed wire error clients switch on. Statement-level errors a shard
// itself reported (*wire.Error) are never wrapped — a sema rejection
// on shard 2 is the statement's error, not a cluster fault.
func shardUnavailable(id int, addr string, err error) error {
	shardErrors.Inc()
	return &wire.Error{
		Code:    wire.CodeShardUnavailable,
		Message: fmt.Sprintf("shard %d (%s): %v", id, addr, err),
	}
}

// isTransportErr reports whether a shard call failed below the
// statement layer: not a server-reported typed error and not the
// caller's own cancellation. These are the failures that count against
// shard health. A shard that is closing answers CodeShutdown before its
// socket goes; that reply is the shard going away, not the statement's
// error, so it counts as the dropped connection that follows it would.
func isTransportErr(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code == wire.CodeShutdown
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// shardCall runs one call against shard i with health bookkeeping:
// marked-down shards fail fast with the typed error, transport
// failures feed the mark-down counter, successes clear it.
func (c *Coordinator) shardCall(i int, fn func() error) error {
	if !c.shards.available(i) {
		return shardUnavailable(i, c.shards.addr(i), errors.New("marked down"))
	}
	err := fn()
	if err == nil {
		c.shards.noteSuccess(i)
		return nil
	}
	if isTransportErr(err) {
		c.shards.noteFailure(i, err)
		return shardUnavailable(i, c.shards.addr(i), err)
	}
	return err
}

// fanout runs fn once per shard through exec.RunParallel — the same
// cancellation/panic machinery the executor uses for partition scans,
// with one remote partition per shard: the first failure cancels the
// sibling shard calls, and a panic in a merge callback is reported,
// not fatal. The returned span tree (root "fanout", one child per
// shard) is what EXPLAIN ANALYZE renders to show per-shard skew.
func (c *Coordinator) fanout(ctx context.Context, name string, fn func(ctx context.Context, shard int) (rows int64, err error)) (*exec.Span, error) {
	fanouts.Inc()
	n := c.shards.len()
	span := &exec.Span{Name: name, Start: time.Now(), Children: make([]*exec.Span, n)}
	for i := 0; i < n; i++ {
		span.Children[i] = &exec.Span{Name: fmt.Sprintf("shard %d (%s)", i, c.shards.addr(i))}
	}
	err := exec.RunParallel(ctx, 0, n, func(ctx context.Context, i int) error {
		sp := span.Children[i]
		sp.Start = time.Now()
		defer func() { sp.End = time.Now() }()
		return c.shardCall(i, func() error {
			rows, err := fn(ctx, i)
			sp.Rows = rows
			return err
		})
	})
	span.End = time.Now()
	return span, err
}
