package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqltypes"
	"repro/internal/server/wire"
)

// TestReplyWrites counts the socket writes each reply takes: a point
// query's Batch, Schema and Done leave in one, and so does an error.
func TestReplyWrites(t *testing.T) {
	fx := newEnvelopeFixture(t, Config{})
	for _, c := range []struct {
		name  string
		typ   byte
		sql   string
		args  []sqltypes.Value
		fail  error
		code  string
		reply []byte
	}{
		{"point", wire.MsgQuery, "SELECT v FROM T WHERE v = 2.0", nil, nil, "", []byte{wire.MsgBatch, wire.MsgSchema, wire.MsgDone}},
		{"prepared point", wire.MsgQuery, "SELECT v FROM T WHERE v = ?", []sqltypes.Value{sqltypes.NewDouble(3)}, nil, "", []byte{wire.MsgBatch, wire.MsgSchema, wire.MsgDone}},
		{"no rows", wire.MsgQuery, "SELECT v FROM T WHERE v > 9.0", nil, nil, "", []byte{wire.MsgSchema, wire.MsgDone}},
		{"script", wire.MsgExec, "SELECT 1; SELECT v FROM T ORDER BY v", nil, nil, "", []byte{wire.MsgBatch, wire.MsgSchema, wire.MsgDone}},
		{"error", wire.MsgQuery, failSQL, nil, errors.New("disk on fire"), wire.CodeInternal, []byte{wire.MsgError}},
		{"parse error", wire.MsgQuery, "SELEC v FROM T", nil, nil, wire.CodeParse, []byte{wire.MsgError}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.fail != nil {
				defer fx.failWith(c.fail)()
			}
			payload := statementPayload(c.sql, c.args...)(fx)
			before := fx.ln.writes.Load()
			code, reply := fx.roundTrip(t, c.typ, payload)
			// The client has read the whole reply, so every write that
			// carried it has returned.
			if got := fx.ln.writes.Load() - before; got != 1 {
				t.Errorf("reply %#x took %d socket writes, want 1", reply, got)
			}
			if code != c.code || string(reply) != string(c.reply) {
				t.Errorf("reply: code %q, frames %#x; want %q, %#x", code, reply, c.code, c.reply)
			}
		})
	}
}

// TestStreamedBatchesLeaveDuringScan: a result of more than BatchRows
// rows writes each full batch as it fills. The scan is held at its last
// row until the client has read every full batch the rows before it
// make, so batches held back for the tail would time the test out.
func TestStreamedBatchesLeaveDuringScan(t *testing.T) {
	const n, batchRows = 400, 16
	fx := newEnvelopeFixture(t, Config{BatchRows: batchRows})
	var calls atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)
	err := fx.eng.Scalars().Register(expr.FuncDef{
		Name: "gate1", MinArgs: 1, MaxArgs: 1, UDF: true,
		Fn: func(args []sqltypes.Value) (sqltypes.Value, error) {
			if calls.Add(1) == n {
				<-release
			}
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("CREATE TABLE G (v DOUBLE); INSERT INTO G VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d.0)", i)
	}
	if _, err := fx.eng.ExecScript(ins.String()); err != nil {
		t.Fatal(err)
	}

	before := fx.ln.writes.Load()
	if err := fx.wc.Send(wire.MsgQuery, statementPayload("SELECT gate1(v) FROM G")(fx)); err != nil {
		t.Fatal(err)
	}
	// Held at its n-th call, the scan has handed the writer all but the
	// held row and the rows its partition worker keeps before passing
	// them on (fewer than exec's 64-row batch).
	fx.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := 0
	for streamed := (n - 64) / batchRows * batchRows; got < streamed; {
		f, err := fx.wc.Recv()
		if err != nil {
			t.Fatalf("after %d rows, with the scan held: %v", got, err)
		}
		if f.Type != wire.MsgBatch {
			t.Fatalf("frame %#x after %d rows, with the scan held", f.Type, got)
		}
		rows, err := wire.DecodeBatch(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != batchRows {
			t.Fatalf("a batch of %d rows left during the scan, want %d", len(rows), batchRows)
		}
		got += len(rows)
	}
	open()
	for done := false; !done; {
		f, err := fx.wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.MsgBatch:
			rows, err := wire.DecodeBatch(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got += len(rows)
		case wire.MsgSchema:
		case wire.MsgDone:
			done = true
		default:
			t.Fatalf("unexpected frame %#x", f.Type)
		}
	}
	if got != n {
		t.Fatalf("streamed %d rows, want %d", got, n)
	}
	// One write per full batch, and one for the tail: Schema and Done,
	// with no batch left over since n is a multiple of batchRows.
	if w := fx.ln.writes.Load() - before; w != n/batchRows+1 {
		t.Errorf("streamed reply took %d socket writes, want %d", w, n/batchRows+1)
	}
}
