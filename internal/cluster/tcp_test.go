package cluster

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"condsel/internal/robust"
)

// TestTCPReplication: two nodes over real loopback sockets — each serves
// its shard with ServeReplication, fetches the peer's via TCPTransport,
// and the warmed pair answers like a single node; context cancellation
// shuts both servers down cleanly.
func TestTCPReplication(t *testing.T) {
	fx := newClusterFixture(t)
	ids := HarnessIDs(2)
	ring, err := NewRing(ids, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}

	tr := NewTCPTransport(nil)
	cfg := fastConfig()
	cfg.Nodes = ids
	cfg.FetchDeadline = 2 * time.Second // loopback, but CI machines stall

	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		c := cfg
		c.Self = id
		n, err := NewNode(c, fx.cat, ring.Shard(fx.pool, id), tr)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		nodes[i] = n
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, len(ids))
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		tr.SetAddr(id, ln.Addr().String())
		n := nodes[i]
		go func() { done <- n.ServeReplication(ctx, ln) }()
	}

	for _, n := range nodes {
		if err := n.WarmUp(ctx); err != nil {
			t.Fatalf("%s: WarmUp over TCP: %v", n.ID(), err)
		}
	}

	ref := fx.reference()
	for _, q := range fx.queries {
		want, _ := ref.Cardinality(ctx, q)
		for _, n := range nodes {
			got, prov := n.Estimate(ctx, q, robust.Config{})
			if got != want {
				t.Fatalf("%s: %s: TCP-warmed answer %v, single-node %v", n.ID(), q, got, want)
			}
			if prov.Tier != robust.TierFullDP {
				t.Fatalf("%s: warmed node answered from %s", n.ID(), prov.Tier)
			}
		}
	}

	cancel()
	for range ids {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("ServeReplication returned %v on cancellation", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ServeReplication did not exit after cancellation")
		}
	}
}

// TestServeReplicationAcceptErrorReturns: a listener failure while the
// context is still live must surface as an error from ServeReplication —
// the ctx watcher goroutine must not pin the deferred wg.Wait until
// process shutdown (the sitnode supervisor reads this channel to learn the
// replication plane died).
func TestServeReplicationAcceptErrorReturns(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 1, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- h.Node(0).ServeReplication(context.Background(), ln) }()
	ln.Close() // the accept loop fails with the context still live
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("ServeReplication returned nil for an accept error under a live context")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeReplication hung after the listener failed (watcher goroutine leaked)")
	}
}

// TestReplicationListenerRejectsRequestPayload: request frames are defined
// to carry an empty payload, and the unauthenticated listener must refuse
// one that declares a payload instead of allocating for it — the client
// gets no shard frame back.
func TestReplicationListenerRejectsRequestPayload(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 1, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- h.Node(0).ServeReplication(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	req := &Frame{Node: "node-0", Payload: []byte("request frames carry no payload")}
	if err := WriteFrame(conn, req); err != nil {
		t.Fatalf("writing request: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if frame, err := ReadFrame(conn); err == nil {
		t.Fatalf("listener served a shard (stamp %s) for a request with a payload", frame.Stamp)
	}

	// An honest empty-payload request on a fresh connection still works.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn2.Close()
	if err := WriteFrame(conn2, &Frame{Node: "node-0"}); err != nil {
		t.Fatalf("writing request: %v", err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(conn2); err != nil {
		t.Fatalf("empty-payload request refused: %v", err)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeReplication did not exit after cancellation")
	}
}

// TestTCPSilentPeerReadsDeadline: a peer that accepts the connection and
// never answers fails the fetch at its deadline with a socket timeout
// (os.ErrDeadlineExceeded, not context.DeadlineExceeded), and the
// provenance of every degraded estimate names it as <peer>/deadline.
func TestTCPSilentPeerReadsDeadline(t *testing.T) {
	fx := newClusterFixture(t)
	ids := HarnessIDs(2)
	ring, err := NewRing(ids, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn) // accepted, read from nobody, never answered
		}
	}()
	defer func() {
		ln.Close()
		<-accepted
		for _, c := range held {
			c.Close()
		}
	}()

	cfg := fastConfig()
	cfg.Nodes = ids
	cfg.Self = ids[0]
	n, err := NewNode(cfg, fx.cat, ring.Shard(fx.pool, ids[0]),
		NewTCPTransport(map[NodeID]string{ids[1]: ln.Addr().String()}))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	ctx := context.Background()
	err = n.Replicate(ctx, ids[1])
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("fetch from a silent peer: %v, want a socket deadline error", err)
	}
	degraded := 0
	for _, q := range fx.queries {
		_, prov := n.Estimate(ctx, q, robust.Config{})
		if prov.Tier == robust.TierFullDP {
			continue
		}
		degraded++
		if !strings.Contains(prov.FallbackReason, string(ids[1])+"/deadline") {
			t.Fatalf("%s: provenance %q does not name %s/deadline", q, prov.FallbackReason, ids[1])
		}
	}
	if degraded == 0 {
		t.Fatal("no estimate needed the silent peer's shard")
	}
}
