package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/server/wire"
)

// startOtherVersionServer runs a fake server from a build that speaks
// some other protocol version: it answers every Hello with the typed
// protocol error, the way twmd answers a version it does not speak. It
// counts the connections it accepted.
func startOtherVersionServer(t *testing.T) (addr string, dials *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dials = new(atomic.Int64)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func() {
				defer nc.Close()
				wc := wire.NewConn(nc)
				f, err := wc.Recv()
				if err != nil || f.Type != wire.MsgHello {
					return
				}
				hello, err := wire.DecodeHello(f.Payload)
				if err != nil {
					return
				}
				wc.Send(wire.MsgError, wire.EncodeError(&wire.Error{
					Code:    wire.CodeProtocol,
					Message: fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, hello.Version-1),
				}))
			}()
		}
	}()
	return ln.Addr().String(), dials
}

// TestVersionMismatchSurfacesWithoutRedial: a server that rejects the
// client's protocol version is a deployment error the caller must see —
// the typed protocol error from the first handshake, not a second dial
// offering something older.
func TestVersionMismatchSurfacesWithoutRedial(t *testing.T) {
	addr, dials := startOtherVersionServer(t)
	p, err := Open(Config{Addr: addr, User: "compat", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	err = p.Ping(context.Background())
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeProtocol {
		t.Fatalf("Ping against another-version server = %v, want the typed %q error", err, wire.CodeProtocol)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want exactly 1 (no redial)", n)
	}
}

// TestWelcomeVersionChecked: a Welcome naming any other version than
// the one offered fails the dial instead of opening a session whose two
// ends disagree about frame layouts.
func TestWelcomeVersionChecked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		wc := wire.NewConn(nc)
		if _, err := wc.Recv(); err != nil {
			return
		}
		wc.Send(wire.MsgWelcome, wire.EncodeWelcome(wire.Welcome{SessionID: 1, Server: "other/1", Proto: wire.ProtocolVersion + 1}))
	}()
	p, err := Open(Config{Addr: ln.Addr().String(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Ping(context.Background()); err == nil {
		t.Fatal("Ping succeeded against a server that welcomed another protocol version")
	}
}
