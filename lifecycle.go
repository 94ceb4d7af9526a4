package condsel

import (
	"context"
	"time"

	"condsel/internal/lifecycle"
	"condsel/internal/sit"
)

// LifecycleOptions tunes a statistics lifecycle manager. The zero value
// selects the package defaults: drift threshold 4 (estimates off by 4×
// either way), 8 observations before the drift accumulator is trusted, 2
// rebuild workers, 3 attempts before a statistic parks, 50ms–5s backoff, and
// 2 retained snapshot generations. Each manager gives its epochs a
// cross-query cache of 16,384 entries.
type LifecycleOptions struct {
	// Model is the error model estimates are produced under (default Diff).
	Model Model

	// DriftThreshold is the q-error EWMA at or above which a statistic is
	// declared stale and queued for rebuild.
	DriftThreshold float64
	// MinObservations is how many feedback observations a statistic needs
	// before its drift accumulator is trusted.
	MinObservations int

	// Workers bounds rebuild concurrency.
	Workers int
	// MaxRetries is how many rebuild attempts a statistic gets before it is
	// parked with the failure recorded.
	MaxRetries int
	// BackoffBase and BackoffCap bound the deterministic retry backoff.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter; schedules are reproducible per seed.
	Seed int64

	// Dir is the snapshot directory. Empty disables persistence: Checkpoint
	// errors and Stop skips the final snapshot.
	Dir string
	// Keep is how many snapshot generations to retain.
	Keep int
}

// lifecycleCacheEntries bounds the cross-query cache that a manager's epochs
// share. Feedback is charged to the decomposition its query's estimate read;
// for a query estimated through Manager.Estimator that decomposition is
// then a cache hit instead of a second full DP.
const lifecycleCacheEntries = 1 << 14

func (o *LifecycleOptions) internal(cache *SelCache) lifecycle.Config {
	if o == nil {
		return lifecycle.Config{Cache: cache.c}
	}
	return lifecycle.Config{
		Cache:           cache.c,
		Model:           o.Model.internal(),
		DriftThreshold:  o.DriftThreshold,
		MinObservations: o.MinObservations,
		Workers:         o.Workers,
		MaxRetries:      o.MaxRetries,
		BackoffBase:     o.BackoffBase,
		BackoffCap:      o.BackoffCap,
		Seed:            o.Seed,
		Dir:             o.Dir,
		Keep:            o.Keep,
	}
}

// Manager keeps a statistics pool healthy across a long-running process: it
// detects drifting statistics from execution feedback, rebuilds stale and
// quarantined ones under capped deterministic backoff, publishes each rebuild
// that changes a statistic by hot-swapping a fresh pool epoch (in-flight
// estimates finish against the old one; a rebuild that reproduces the
// statistic publishes nothing), and — when a snapshot directory is
// configured — checkpoints the whole state crash-safely. Its epochs share a
// bounded cross-query cache, purged of each generation a swap retires. See
// DESIGN.md "Statistics lifecycle".
type Manager struct {
	db    *DB
	m     *lifecycle.Manager
	cache *SelCache
}

// NewLifecycle returns a manager over the pool. The pool must not be mutated
// directly afterwards; every change goes through the manager's epochs.
func (db *DB) NewLifecycle(pool *Pool, opts *LifecycleOptions) *Manager {
	cache := NewSelCache(lifecycleCacheEntries)
	return &Manager{db: db, m: lifecycle.New(db.cat, pool.pool, opts.internal(cache)), cache: cache}
}

// OpenLifecycle recovers a manager from opts.Dir: the newest snapshot that
// verifies end-to-end (header, length, checksum, decode) wins, torn or
// corrupt ones are reported in LifecycleHealth.CorruptSnapshots and skipped,
// and with no usable snapshot the fallback pool is used (nil for an empty
// one). A half-written snapshot is never loaded.
func (db *DB) OpenLifecycle(fallback *Pool, opts *LifecycleOptions) (*Manager, error) {
	var fb *sit.Pool
	if fallback != nil {
		fb = fallback.pool
	}
	cache := NewSelCache(lifecycleCacheEntries)
	m, err := lifecycle.Open(db.cat, fb, opts.internal(cache))
	if err != nil {
		return nil, err
	}
	return &Manager{db: db, m: m, cache: cache}, nil
}

// Start launches the rebuild workers; cancel the context (or call Stop) to
// drain them.
func (m *Manager) Start(ctx context.Context) error { return m.m.Start(ctx) }

// Stop drains the workers and, when persistence is configured, writes a
// final checkpoint.
func (m *Manager) Stop() error { return m.m.Stop() }

// Pool returns the published epoch's statistics as a condsel Pool. The value
// is a point-in-time view: after a hot-swap, call Pool again for the new
// epoch.
func (m *Manager) Pool() *Pool {
	return &Pool{db: m.db, pool: m.m.Pool(), builder: m.db.newBuilder(nil)}
}

// Estimator returns an estimator over the published epoch. Like Pool, the
// value is pinned to the current epoch; an optimizer that wants every query
// to see the freshest statistics calls Estimator per query (the cost is one
// atomic load). Its Cache is the manager's cross-query cache.
func (m *Manager) Estimator() *Estimator {
	return &Estimator{db: m.db, est: m.m.Estimator(), cache: m.cache}
}

// Generation returns the published pool generation — the stamp that keys
// every cross-query cache entry, bumped by each hot-swap.
func (m *Manager) Generation() uint64 { return m.m.Generation() }

// Observe feeds one execution-feedback observation: the estimated and actual
// cardinality of a query. The statistics that the published epoch's chosen
// decomposition of the query reads accumulate the observation's q-error;
// crossing the drift threshold (times a structural statistic's baseline)
// queues them for rebuild. Observe looks the decomposition up in the
// manager's cache, where an estimate through Estimator left it; otherwise it
// recomputes the query's full DP. The charge assumes a full-DP answer: an
// answer from a lower ladder tier is charged to the full-DP decomposition.
func (m *Manager) Observe(q *Query, estimated, actual float64) {
	m.m.Observe(q.q, q.q.All(), estimated, actual)
}

// MarkStale forces the statistic with the given canonical ID into the
// rebuild loop, reporting whether the ID is known to the published pool.
func (m *Manager) MarkStale(id, reason string) bool { return m.m.MarkStale(id, reason) }

// Revive returns a parked statistic to the rebuild loop.
func (m *Manager) Revive(id string) bool { return m.m.Revive(id) }

// SyncQuarantine scans the published pool for quarantined statistics and
// queues them for rebuild — call it after quarantining through Pool
// directly.
func (m *Manager) SyncQuarantine() { m.m.SyncQuarantine() }

// Checkpoint writes a crash-safe snapshot of the published pool and the
// lifecycle state, returning the file written.
func (m *Manager) Checkpoint() (string, error) { return m.m.Checkpoint() }

// LifecycleState is a statistic's position in the lifecycle state machine,
// as the string the manager reports: "healthy", "stale", "rebuilding",
// "parked" or "structural". A structural statistic is in service: its last
// rebuild reproduced it, so its feedback error comes from the independence
// assumptions of the decompositions that read it, and drift flags it again
// only at the drift threshold times its Baseline.
type LifecycleState = string

// LifecycleRecord is one statistic's lifecycle state.
type LifecycleRecord struct {
	ID    string
	State LifecycleState
	// QErrEWMA is the statistic's drift accumulator (1 = perfect estimates).
	QErrEWMA float64
	// Observations accumulated since the last heal.
	Observations int
	// Baseline is the structural error: the EWMA a reproduced rebuild found,
	// or the lowest EWMA since then; 1 until a rebuild is reproduced. Drift
	// flags the statistic at the drift threshold times Baseline.
	Baseline float64
	// Attempts is the rebuild attempt count of the current stale episode.
	Attempts int
	// Healed counts rebuilds that published a changed statistic over the
	// manager's lifetime.
	Healed int
	// Reason says why the statistic is stale, parked or structural.
	Reason string
}

// CorruptSnapshot describes a snapshot file recovery rejected.
type CorruptSnapshot struct {
	// Seq is the snapshot sequence parsed from the file name.
	Seq uint64
	// File is the snapshot's path.
	File string
	// Reason is what failed: torn payload, checksum mismatch, decode error.
	Reason string
}

// LifecycleHealth is a point-in-time report of the manager's world: state
// counts, lifetime counters, and what recovery found on disk.
type LifecycleHealth struct {
	Healthy    int
	Stale      int
	Rebuilding int
	Parked     int
	Structural int

	// PoolGeneration is the published epoch's generation.
	PoolGeneration uint64
	// Rebuilds and Failures count successful rebuilds (reproduced ones
	// included) and failed attempts; Swaps counts epoch publications, one
	// per rebuild that changed a statistic; DroppedObservations counts
	// feedback discarded for belonging to a retired epoch.
	Rebuilds            int64
	Failures            int64
	Swaps               int64
	DroppedObservations int64
	// CheckpointSeq is the last successful checkpoint's sequence (0 before
	// the first).
	CheckpointSeq uint64
	// CorruptSnapshots lists snapshot files recovery rejected, newest first.
	CorruptSnapshots []CorruptSnapshot
	// States lists per-statistic lifecycle records in ID order.
	States []LifecycleRecord
}

// Health reports the manager's current world.
func (m *Manager) Health() LifecycleHealth {
	h := m.m.Health()
	out := LifecycleHealth{
		Healthy:             h.Healthy,
		Stale:               h.Stale,
		Rebuilding:          h.Rebuilding,
		Parked:              h.Parked,
		Structural:          h.Structural,
		PoolGeneration:      h.PoolGeneration,
		Rebuilds:            h.Rebuilds,
		Failures:            h.Failures,
		Swaps:               h.Swaps,
		DroppedObservations: h.DroppedObservations,
		CheckpointSeq:       h.CheckpointSeq,
	}
	for _, is := range h.CorruptSnapshots {
		out.CorruptSnapshots = append(out.CorruptSnapshots, CorruptSnapshot{
			Seq: is.Seq, File: is.File, Reason: is.Reason,
		})
	}
	for _, rec := range h.States {
		out.States = append(out.States, LifecycleRecord{
			ID:           rec.ID,
			State:        rec.State.String(),
			QErrEWMA:     rec.EWMA,
			Observations: rec.Obs,
			Baseline:     rec.Baseline,
			Attempts:     rec.Attempts,
			Healed:       rec.Healed,
			Reason:       rec.Reason,
		})
	}
	return out
}
