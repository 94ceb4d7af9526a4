package cluster

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestEpochFileCountsRestarts: every OpenEpochFile restores the recorded
// epoch and increments past it — the durable restart counter fencing
// depends on.
func TestEpochFileCountsRestarts(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		_, got, err := OpenEpochFile(dir)
		if err != nil {
			t.Fatalf("OpenEpochFile #%d: %v", want, err)
		}
		if got != want {
			t.Fatalf("boot %d restored epoch %d", want, got)
		}
	}
	// A RebuildLocal-driven Store advances what the next boot sees.
	f, _, err := OpenEpochFile(dir)
	if err != nil {
		t.Fatalf("OpenEpochFile: %v", err)
	}
	if err := f.Store(10); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if _, got, err := OpenEpochFile(dir); err != nil || got != 11 {
		t.Fatalf("boot after Store(10) = (%d, %v), want (11, nil)", got, err)
	}
}

// TestEpochFileCorruptIsError: a damaged epoch file must refuse to open —
// silently restarting from epoch 1 is exactly the fence-out the file
// prevents.
func TestEpochFileCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, epochFileName), []byte("garbage\n"), 0o644); err != nil {
		t.Fatalf("seeding corrupt file: %v", err)
	}
	if _, _, err := OpenEpochFile(dir); err == nil {
		t.Fatal("corrupt epoch file opened without error")
	}
}

// TestRebuildLocalPersistsEpochViaSink: RebuildLocal hands the bumped
// epoch to the configured sink before the new stamp can be served.
func TestRebuildLocalPersistsEpochViaSink(t *testing.T) {
	fx := newClusterFixture(t)
	var sunk []uint64
	cfg := fastConfig()
	cfg.Self = "node-0"
	cfg.Nodes = HarnessIDs(1)
	cfg.Epoch = 5
	cfg.EpochSink = func(e uint64) { sunk = append(sunk, e) }
	n, err := NewNode(cfg, fx.cat, fx.pool, NewMemTransport())
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if got := n.Stamp().Epoch.Count(); got != 5 {
		t.Fatalf("starting epoch = %d, want the configured 5", got)
	}
	n.RebuildLocal(fx.pool)
	if len(sunk) != 1 || sunk[0] != 6 {
		t.Fatalf("EpochSink observed %v, want [6]", sunk)
	}
	if got := n.Stamp().Epoch.Count(); got != 6 {
		t.Fatalf("epoch after rebuild = %d, want 6", got)
	}
}

// TestRestartWithPersistedEpochReadmitted: a node that restarts with its
// persisted (incremented) epoch is admitted by peers that fenced on its
// previous run — the epoch half of the stamp dominates, so the reset pool
// generation is irrelevant. Without persistence the restarted node would
// reuse epoch 1 and typically never be strictly newer again.
func TestRestartWithPersistedEpochReadmitted(t *testing.T) {
	fx := newClusterFixture(t)
	h, err := NewHarness(fx.cat, fx.pool, 2, fastConfig())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	ctx := context.Background()
	observer, restarting := h.Node(0), h.Node(1)

	dir := t.TempDir()
	// First boot: the fresh EpochFile yields 1, matching the harness node.
	if _, e, err := OpenEpochFile(dir); err != nil || e != 1 {
		t.Fatalf("first boot epoch = (%d, %v), want (1, nil)", e, err)
	}
	if err := observer.Replicate(ctx, restarting.ID()); err != nil {
		t.Fatalf("replicate before restart: %v", err)
	}
	admitted := observer.vec.Get(restarting.ID())

	// "Restart": a brand-new Node over the same shard, its epoch restored
	// and incremented from the state dir.
	_, e2, err := OpenEpochFile(dir)
	if err != nil {
		t.Fatalf("restart boot: %v", err)
	}
	cfg := fastConfig()
	cfg.Self = restarting.ID()
	cfg.Nodes = h.IDs
	cfg.Epoch = e2
	reborn, err := NewNode(cfg, fx.cat, h.Ring.Shard(fx.pool, restarting.ID()), h.Transport)
	if err != nil {
		t.Fatalf("NewNode(reborn): %v", err)
	}
	h.Transport.Register(reborn) // takes over the identity on the transport

	if err := observer.Replicate(ctx, restarting.ID()); err != nil {
		t.Fatalf("restarted node with persisted epoch fenced out: %v", err)
	}
	got := observer.vec.Get(restarting.ID())
	if got.Epoch != EpochOf(e2) {
		t.Fatalf("admitted epoch %d after restart, want %d", got.Epoch.Count(), e2)
	}
	if !got.Newer(admitted) {
		t.Fatalf("restarted stamp %s is not newer than pre-restart %s", got, admitted)
	}
}
