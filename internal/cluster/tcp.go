package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP transport: the cross-process form of the replication protocol that
// cmd/sitnode speaks. One fetch is one short-lived connection — the client
// dials under its context deadline, sends a request frame (its own id and
// stamp, empty payload) and reads back the peer's shard frame. No
// connection pooling: shard fetches are rare (warm-up, post-rebuild
// re-replication, partition recovery), and one-shot connections make the
// failure model trivial — any broken link is one failed fetch, retried at
// the caller's next replication tick.

// TCPTransport implements Transport over real sockets given a peer address
// book.
type TCPTransport struct {
	mu    sync.Mutex
	addrs map[NodeID]string
}

// NewTCPTransport returns a transport over the address book (peer id →
// host:port).
func NewTCPTransport(addrs map[NodeID]string) *TCPTransport {
	book := make(map[NodeID]string, len(addrs))
	for id, a := range addrs {
		book[id] = a
	}
	return &TCPTransport{addrs: book}
}

// SetAddr adds or updates one peer address.
func (t *TCPTransport) SetAddr(id NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// Fetch implements Transport: dial, send a request frame, read the shard.
func (t *TCPTransport) Fetch(ctx context.Context, from, peer NodeID) (*Frame, error) {
	t.mu.Lock()
	addr, ok := t.addrs[peer]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(dl); err != nil {
			return nil, err
		}
	}
	if err := WriteFrame(conn, &Frame{Node: from}); err != nil {
		return nil, fmt.Errorf("cluster: sending request to %s: %w", peer, err)
	}
	frame, err := ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading shard from %s: %w", peer, err)
	}
	return frame, nil
}

// connTimeout bounds one inbound replication exchange on the serving side.
const connTimeout = 30 * time.Second

// ServeReplication answers shard fetches on the listener until ctx is
// done. Each connection is handled in its own goroutine; the accept loop
// exits when the listener is closed (a watcher goroutine closes it on
// ctx.Done, which is also each handler's exit path via connection
// deadlines). The method returns nil on context cancellation, the accept
// error otherwise.
func (n *Node) ServeReplication(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	// done releases the watcher when ServeReplication returns for a reason
	// other than ctx — an accept error with a live context — so the
	// deferred wg.Wait cannot deadlock on it. Closed after wg.Wait is
	// deferred: defers run LIFO, so the watcher is released first.
	done := make(chan struct{})
	defer close(done)
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
		case <-done:
		}
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.handleReplication(ctx, conn)
		}()
	}
}

// handleReplication answers one inbound fetch.
func (n *Node) handleReplication(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	deadline := time.Now().Add(connTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return
	}
	// The request frame identifies the caller; its payload is defined to be
	// empty, and the cap-0 read enforces that before allocating — the
	// listener is unauthenticated, so a declared payload length must not
	// buy an attacker a 64 MiB allocation. A malformed request is dropped —
	// the client's read then fails and its next replication tick retries.
	if _, err := ReadFrameLimit(conn, 0); err != nil {
		return
	}
	frame, err := n.ShardFrame()
	if err != nil {
		return
	}
	_ = WriteFrame(conn, frame)
}
