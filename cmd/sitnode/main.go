// Command sitnode runs one member of the distributed statistics tier: the
// estimation service of sitserve fronting a cluster node that owns a
// consistent-hash shard of the SIT pool, replicates peer shards over the
// SITW wire protocol, fences stale state with per-node epochs, and answers
// from its local degradation ladder — with provenance — whenever a peer
// shard it needs has not been replicated.
//
// Every node deterministically provisions the same synthetic database and
// full pool from the shared seed, then keeps only its ring shard; peers are
// learned from the -peers address book. Estimates never error or wait on a
// partition: they degrade with `remote-shard-unavailable: <peer>/<cause>`
// provenance.
//
// Usage:
//
//	sitnode -id node-0 -nodes 3 -peers node-1=host:9091,node-2=host:9092
//	        [-raddr :9090] [-addr :8080] [-state dir] [-fact N] [-seed N]
//	        [-queries N] [-joins N] [-maxpool N] [-cache N] [-repl-ms N]
//	        [-drain-s N]
//
// -state names a directory whose EPOCH file persists the node's rebuild
// epoch across restarts; without it the epoch restarts at 1 and peers that
// admitted the previous run fence every frame from the new one.
//
// Endpoints are sitserve's (/estimate, /estimate/batch, /metrics, /healthz,
// /readyz) plus condsel_cluster_* gauges on /metrics; -raddr speaks the
// replication protocol to peers.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"condsel/internal/cluster"
	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/serve"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

func main() {
	var (
		id       = flag.String("id", "node-0", "this node's id (must be one of node-0..node-{N-1})")
		nodes    = flag.Int("nodes", 3, "cluster membership size N")
		peers    = flag.String("peers", "", "peer address book: id=host:port,id=host:port")
		raddr    = flag.String("raddr", ":9090", "replication listen address")
		addr     = flag.String("addr", ":8080", "estimation service listen address")
		fact     = flag.Int("fact", 20000, "fact table rows")
		seed     = flag.Int64("seed", 42, "shared random seed (must match across the cluster)")
		queries  = flag.Int("queries", 25, "workload queries used to build the SIT pool")
		joins    = flag.Int("joins", 3, "joins per workload query")
		maxPool  = flag.Int("maxpool", 3, "largest SIT pool J_i to build")
		cacheCap = flag.Int("cache", 4096, "selectivity cache capacity (0 disables)")
		replMs   = flag.Int("repl-ms", 2000, "anti-entropy replication interval")
		drainS   = flag.Int("drain-s", 10, "graceful-drain deadline in seconds")
		stateDir = flag.String("state", "", "state directory persisting the rebuild epoch across restarts (empty: ephemeral epoch, peers will fence a restarted node)")
	)
	flag.Parse()
	// The process-root context is minted here and only here ("no minted
	// roots past main"): cancelled on SIGTERM/SIGINT, everything below
	// inherits it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, stop, options{
		id: *id, nodes: *nodes, peers: *peers, raddr: *raddr, addr: *addr,
		fact: *fact, seed: *seed, queries: *queries, joins: *joins,
		maxPool: *maxPool, cacheCap: *cacheCap, stateDir: *stateDir,
		repl:  time.Duration(*replMs) * time.Millisecond,
		drain: time.Duration(*drainS) * time.Second,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sitnode:", err)
		os.Exit(1)
	}
}

type options struct {
	id       string
	nodes    int
	peers    string
	raddr    string
	addr     string
	fact     int
	seed     int64
	queries  int
	joins    int
	maxPool  int
	cacheCap int
	stateDir string
	repl     time.Duration
	drain    time.Duration
}

// parsePeers splits "id=host:port,id=host:port" into the transport book.
func parsePeers(s string) (map[cluster.NodeID]string, error) {
	book := make(map[cluster.NodeID]string)
	if s == "" {
		return book, nil
	}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", entry)
		}
		book[cluster.NodeID(id)] = addr
	}
	return book, nil
}

func run(ctx context.Context, stop context.CancelFunc, opt options) error {
	if opt.nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1")
	}
	book, err := parsePeers(opt.peers)
	if err != nil {
		return err
	}

	// Every member derives the identical database, workload and full pool
	// from the shared seed, then keeps its ring shard. A real deployment
	// would ship shards; the reproduction regenerates them, which keeps
	// cross-node bit-identity checkable from the outside.
	fmt.Printf("sitnode %s: generating snowflake database (fact=%d seed=%d)\n", opt.id, opt.fact, opt.seed)
	db := datagen.Generate(datagen.Config{Seed: opt.seed, FactRows: opt.fact})
	gen := workload.NewGenerator(db, workload.Config{
		Seed: opt.seed, NumQueries: opt.queries, Joins: opt.joins, Filters: 3,
	})
	wl, err := gen.Generate()
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	full := sit.BuildWorkloadPoolParallel(db.Cat, wl, opt.maxPool, runtime.GOMAXPROCS(0), nil)

	ids := cluster.HarnessIDs(opt.nodes)
	self := cluster.NodeID(opt.id)
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		return err
	}
	var cache *core.SelCacheStore
	if opt.cacheCap > 0 {
		cache = core.NewSelCache(opt.cacheCap)
	}
	// The rebuild epoch must outlive the process — peers fence on it, and a
	// restarted node that reuses an old epoch is fenced out forever. With a
	// state dir the EpochFile counts restarts durably; without one every
	// boot stamps epoch 1 and only a fresh cluster will admit this node.
	var (
		epoch     uint64
		epochSink func(uint64)
	)
	if opt.stateDir != "" {
		ef, e, err := cluster.OpenEpochFile(opt.stateDir)
		if err != nil {
			return err
		}
		epoch = e
		epochSink = func(ep uint64) {
			if err := ef.Store(ep); err != nil {
				fmt.Fprintf(os.Stderr, "sitnode %s: persisting epoch %d: %v\n", opt.id, ep, err)
			}
		}
	} else {
		fmt.Printf("sitnode %s: no -state dir: epoch is ephemeral, peers will fence this node after a restart\n", opt.id)
	}

	tr := cluster.NewTCPTransport(book)
	node, err := cluster.NewNode(cluster.Config{
		Self:      self,
		Nodes:     ids,
		Cache:     cache,
		Epoch:     epoch,
		EpochSink: epochSink,
	}, db.Cat, ring.Shard(full, self), tr)
	if err != nil {
		return err
	}
	local := len(node.MergedPool().SITs())
	fmt.Printf("sitnode %s: owns %d of %d SITs (epoch %d)\n", opt.id, local, len(full.SITs()), node.Stamp().Epoch.Count())

	rln, err := net.Listen("tcp", opt.raddr)
	if err != nil {
		return fmt.Errorf("replication listen: %w", err)
	}
	fmt.Printf("sitnode %s: replication on %s\n", opt.id, rln.Addr())
	var wg sync.WaitGroup
	replErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		replErr <- node.ServeReplication(ctx, rln)
	}()

	// Best-effort warm-up, then anti-entropy: an unreachable peer at boot
	// is just the degraded-start case, not an error.
	if err := node.WarmUp(ctx); err != nil {
		fmt.Printf("sitnode %s: starting degraded: %v\n", opt.id, err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		node.ReplicateLoop(ctx, opt.repl)
	}()

	srv, err := serve.New(serve.Config{
		Catalog:   db.Cat,
		Estimator: node,
		Cache:     cache,
		Pool:      func() *sit.Pool { return node.MergedPool() },
		Cluster: func() serve.ClusterCounters {
			c := node.Counters()
			return serve.ClusterCounters{
				Nodes:            c.Nodes,
				PeersAdmitted:    c.PeersAdmitted,
				PeersMissing:     c.PeersMissing,
				Epoch:            c.Epoch,
				LocalGeneration:  c.LocalGeneration,
				MergedGeneration: c.MergedGeneration,
				Replications:     c.Replications,
				ReplFailures:     c.ReplFailures,
				FenceRejections:  c.FenceRejections,
				Degraded:         c.Degraded,
			}
		},
		DrainDeadline: opt.drain,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	fmt.Printf("sitnode %s: serving estimates on %s\n", opt.id, ln.Addr())

	serveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr <- srv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		stop()
		wg.Wait()
		return fmt.Errorf("serve: %w", err)
	case err := <-replErr:
		stop()
		wg.Wait()
		if err != nil {
			return fmt.Errorf("replication: %w", err)
		}
		return fmt.Errorf("replication listener closed")
	case <-ctx.Done():
	}

	// Graceful drain mirrors sitserve: stop admitting, finish in-flight
	// requests under the drain deadline. stop() restores default signal
	// handling first so a second SIGTERM kills the process.
	stop()
	fmt.Printf("sitnode %s: draining\n", opt.id)
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), opt.drain+time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	wg.Wait() // replication server and anti-entropy exit on the cancelled root
	if shutdownErr != nil {
		return shutdownErr
	}
	fmt.Printf("sitnode %s: drained cleanly\n", opt.id)
	return nil
}
