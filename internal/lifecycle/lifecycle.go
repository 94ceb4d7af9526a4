// Package lifecycle keeps a statistics pool healthy across a long-running
// process: it detects drifting statistics from execution feedback, schedules
// rebuilds under capped deterministic backoff, publishes each rebuild that
// changes a statistic by hot-swapping a fresh pool epoch, and checkpoints the
// whole state crash-safely so a restart resumes where the previous process
// died.
//
// The manager never mutates a live pool. A rebuild derives a replacement
// pool (sit.Pool.Rebuilt) sharing every untouched statistic; the new epoch
// is published with one atomic store while in-flight estimates finish
// against the old one. Pool generations are process-wide unique, so the
// generation-keyed cross-query caches (internal/selcache) can never serve a
// value across the swap; no published run asks for a retired generation's
// keys again, so the caches' LRU ages its entries out. A rebuild that
// reproduces the statistic the pool serves publishes nothing: the epoch and
// its generation stay as they are.
//
// Statistics move through a small state machine:
//
//	healthy ──drift/quarantine──▶ stale ──worker──▶ rebuilding
//	rebuilding ──changed──▶ healthy (new epoch)
//	rebuilding ──reproduced──▶ structural (no epoch)
//	rebuilding ──failure──▶ stale (backoff, retry)
//	rebuilding ──MaxRetries failures──▶ parked
//	structural ──drift ≥ threshold × baseline / quarantine──▶ stale
//
// Feedback charges an observation's q-error to the statistics the observed
// epoch's chosen decomposition read, nothing else. A structural statistic's
// error is the decomposition's independence assumptions, which no rebuild
// lowers: its baseline is the EWMA its reproduced rebuild found, falling
// with the EWMA afterwards, and drift flags it again only at DriftThreshold
// times that baseline (healthy statistics have baseline 1). Parked
// statistics are out of the rebuild loop for good (until an operator Revive)
// with the reason recorded — repeated failure must not become a tight
// rebuild loop. Every transition is observable through Health.
//
// When the estimation hot path is fronted by a Manager, its only added cost
// is one atomic epoch load — the drift accumulators live off-path, fed by
// the feedback stream.
package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/sit"
)

// Defaults for the zero Config.
const (
	DefaultDriftThreshold  = 4.0
	DefaultMinObservations = 8
	DefaultAlpha           = 0.25
	DefaultWorkers         = 2
	DefaultMaxRetries      = 3
	DefaultBackoffBase     = 50 * time.Millisecond
	DefaultBackoffCap      = 5 * time.Second
	DefaultKeepSnapshots   = 2
)

// RebuildFunc re-executes one statistic's generating expression and returns
// the fresh SIT. Implementations may be called concurrently from several
// rebuild workers.
type RebuildFunc func(attr engine.AttrID, expr []engine.Pred) (*sit.SIT, error)

// SleepFunc waits for d or until the context is done (returning its error).
// Tests inject one to run the backoff schedule on a virtual clock.
type SleepFunc func(ctx context.Context, d time.Duration) error

// Config tunes a Manager. The zero value of every field takes the package
// default; only Rebuild has no universal default (nil selects a builder over
// the catalog's own data, which suits every in-process pool).
type Config struct {
	// Model is the error model of the epoch estimators (default core.Diff).
	Model core.ErrorModel

	// DriftThreshold is the q-error EWMA at or above which a statistic is
	// declared stale (default 4: estimates off by 4× either way).
	DriftThreshold float64
	// MinObservations is how many feedback observations a statistic must
	// accumulate before its EWMA is trusted (default 8).
	MinObservations int
	// Alpha is the EWMA smoothing factor in (0,1] (default 0.25).
	Alpha float64

	// Workers is the rebuild worker count (default 2).
	Workers int
	// MaxRetries is how many rebuild attempts a statistic gets before it is
	// parked (default 3).
	MaxRetries int
	// BackoffBase/BackoffCap bound the retry backoff schedule (defaults
	// 50ms / 5s); see Backoff.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter (deterministic per seed).
	Seed int64

	// Dir is the snapshot directory; empty disables persistence.
	Dir string
	// Keep is how many snapshot generations to retain (default 2; the
	// previous generation is what recovery falls back to after a torn write).
	Keep int

	// Cache, when non-nil, is attached to every epoch's estimator. Feedback
	// on a query estimated through the epoch finds the decomposition it
	// charges there; without it every observation runs the query's full DP.
	// A hot-swap leaves the retired generation's entries to the LRU.
	Cache *core.SelCacheStore

	// Rebuild overrides how statistics are rebuilt (nil: execute the
	// expression against the catalog's data with a fresh sit.Builder).
	Rebuild RebuildFunc
	// Sleep overrides how backoff delays are waited out (nil: timer +
	// ctx.Done select). The schedule itself never reads a clock.
	Sleep SleepFunc
}

func (c Config) driftThreshold() float64 {
	if c.DriftThreshold <= 0 {
		return DefaultDriftThreshold
	}
	return c.DriftThreshold
}

func (c Config) minObservations() int {
	if c.MinObservations <= 0 {
		return DefaultMinObservations
	}
	return c.MinObservations
}

func (c Config) alpha() float64 {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return DefaultAlpha
	}
	return c.Alpha
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return DefaultWorkers
	}
	return c.Workers
}

func (c Config) maxRetries() int {
	if c.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

func (c Config) keep() int {
	if c.Keep <= 0 {
		return DefaultKeepSnapshots
	}
	return c.Keep
}

func (c Config) model() core.ErrorModel {
	if c.Model == nil {
		return core.Diff{}
	}
	return c.Model
}

// State is a statistic's position in the lifecycle state machine.
type State uint8

const (
	// StateHealthy: in service, drift accumulator below threshold.
	StateHealthy State = iota
	// StateStale: drift or quarantine detected; queued for rebuild.
	StateStale
	// StateRebuilding: a worker is rebuilding it right now.
	StateRebuilding
	// StateParked: rebuilds failed MaxRetries times (or no spec is known);
	// out of the loop until revived, reason recorded.
	StateParked
	// StateStructural: in service; its last rebuild reproduced it, so its
	// feedback error is structural and drift is judged against a baseline.
	StateStructural
)

// String names the state as reported in Health and snapshots.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateStale:
		return "stale"
	case StateRebuilding:
		return "rebuilding"
	case StateParked:
		return "parked"
	case StateStructural:
		return "structural"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// parseState inverts State.String for snapshot loading; unknown strings load
// as StateStale (the safe default: the statistic gets re-examined).
func parseState(s string) State {
	switch s {
	case "healthy":
		return StateHealthy
	case "rebuilding": // a rebuild in flight at crash time restarts as stale
		return StateStale
	case "parked":
		return StateParked
	case "structural":
		return StateStructural
	}
	return StateStale
}

// spec is what a rebuild needs: the statistic's attribute and generating
// expression.
type spec struct {
	attr engine.AttrID
	expr []engine.Pred
}

// sitState is one statistic's mutable lifecycle state, guarded by Manager.mu.
type sitState struct {
	id       string
	state    State
	ewma     float64 // q-error EWMA of feedback observations
	obs      int     // observations accumulated since last heal
	baseline float64 // drift flags at DriftThreshold × baseline; ≥ 1
	attempts int     // rebuild attempts in the current stale episode
	healed   int     // rebuilds that published a changed statistic
	reason   string  // why stale/parked/structural
	queued   bool    // sitting in the rebuild queue
	spec     *spec   // rebuild spec (nil when unknown → parks)
}

// epoch is one published (pool, estimator) pair. The estimator is built once
// per epoch so the estimation hot path pays a single atomic load to reach a
// fully warmed configuration.
type epoch struct {
	pool *sit.Pool
	est  *core.Estimator
}

// StatusRecord is one statistic's lifecycle state as reported by Health.
// Baseline is the structural error: the EWMA a reproduced rebuild found, or
// the lowest EWMA since then (1 until a rebuild is reproduced); drift flags
// the statistic at DriftThreshold × Baseline. Healed counts rebuilds that
// published.
type StatusRecord struct {
	ID       string
	State    State
	EWMA     float64
	Obs      int
	Baseline float64
	Attempts int
	Healed   int
	Reason   string
}

// Health is a point-in-time report of the manager's world.
type Health struct {
	Healthy    int
	Stale      int
	Rebuilding int
	Parked     int
	Structural int

	// PoolGeneration is the published epoch's current pool generation.
	PoolGeneration uint64
	// Rebuilds / Failures / Swaps / DroppedObservations are lifetime
	// counters: successful rebuilds (reproduced ones included), failed
	// attempts, epoch hot-swaps (one per rebuild that changed a statistic),
	// and feedback observations discarded for being computed against a
	// retired epoch.
	Rebuilds            int64
	Failures            int64
	Swaps               int64
	DroppedObservations int64
	// CheckpointSeq is the sequence of the last successful checkpoint (0
	// before the first).
	CheckpointSeq uint64
	// CorruptSnapshots lists snapshot files recovery rejected, newest first.
	CorruptSnapshots []SnapshotIssue
	// States lists per-statistic records in ID order.
	States []StatusRecord
}

// Manager runs the lifecycle. Create one with New or Open, Start it, feed it
// execution feedback through Observe or ObserveAt, and estimate through
// Estimator.
type Manager struct {
	cfg Config
	cat *engine.Catalog

	// ep is the published epoch; the estimation hot path loads it and
	// nothing else.
	ep atomic.Pointer[epoch]

	mu     sync.Mutex
	states map[string]*sitState
	seq    uint64 // last successful checkpoint sequence
	// ckptMu serializes Checkpoint end to end: seq computation, payload
	// encode and the snapshot write share one critical section. m.mu alone
	// is not enough — it is released before writeSnapshot, so two
	// concurrent checkpoints (a periodic one racing Stop's final flush on
	// SIGTERM, or a replication-triggered one) would compute the same seq
	// and interleave writes to the same temp path, publishing a torn
	// SITSNAP to anyone replicating the snapshot directory. Ordered after
	// m.mu is never held while taking it (Checkpoint takes ckptMu first).
	ckptMu  sync.Mutex
	corrupt []SnapshotIssue
	running bool
	cancel  context.CancelFunc

	// pending is the rebuild queue, oldest first, guarded by mu. It holds
	// each statistic at most once (sitState.queued), so it needs no bound.
	pending []string
	// wake carries one token to the workers while pending may be non-empty.
	wake chan struct{}
	wg   sync.WaitGroup

	rebuilds atomic.Int64
	failures atomic.Int64
	swaps    atomic.Int64
	dropped  atomic.Int64
}

// New returns a manager over the pool. The pool must not be mutated by the
// caller afterwards — every change goes through the manager's epochs.
func New(cat *engine.Catalog, pool *sit.Pool, cfg Config) *Manager {
	m := &Manager{
		cfg:    cfg,
		cat:    cat,
		states: make(map[string]*sitState),
		wake:   make(chan struct{}, 1),
	}
	if pool == nil {
		pool = sit.NewPool(cat)
	}
	m.ep.Store(m.newEpoch(pool))
	m.mu.Lock()
	m.syncQuarantineLocked()
	m.mu.Unlock()
	return m
}

// Open recovers a manager from cfg.Dir: the newest snapshot that verifies
// end-to-end (header, length, CRC, decode) wins; torn or corrupt ones are
// recorded in Health.CorruptSnapshots and skipped. With no usable snapshot
// the fallback pool is used (nil for an empty one). Open never trusts a
// half-written file: verification precedes any use, so a crash mid-
// checkpoint costs at most the interval since the previous checkpoint.
func Open(cat *engine.Catalog, fallback *sit.Pool, cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("lifecycle: Open requires Config.Dir")
	}
	snap, pool, issues, err := recoverLatest(cat, cfg.Dir)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		m := New(cat, fallback, cfg)
		m.mu.Lock()
		m.corrupt = issues
		m.mu.Unlock()
		return m, nil
	}
	m := &Manager{
		cfg:    cfg,
		cat:    cat,
		states: make(map[string]*sitState),
		wake:   make(chan struct{}, 1),
	}
	m.ep.Store(m.newEpoch(pool))
	m.mu.Lock()
	m.seq = snap.Seq
	m.corrupt = issues
	for i := range snap.States {
		m.restoreStateLocked(&snap.States[i])
	}
	for _, qr := range snap.Quarantined {
		st := m.stateLocked(qr.ID)
		if st.inService() {
			m.markStaleLocked(st, "restored quarantine: "+qr.Reason)
		}
	}
	m.syncQuarantineLocked()
	m.mu.Unlock()
	return m, nil
}

// restoreStateLocked loads one persisted state record.
func (m *Manager) restoreStateLocked(rec *stateRecord) {
	st := m.stateLocked(rec.ID)
	st.state = parseState(rec.State)
	st.attempts = rec.Attempts
	st.reason = rec.Reason
	st.ewma = rec.EWMA
	st.obs = rec.Obs
	st.baseline = math.Max(1, rec.Baseline) // absent before structural existed
	st.healed = rec.Healed
	if rec.Spec != nil {
		if attr, expr, err := decodeSpec(m.cat, rec.Spec); err == nil {
			st.spec = &spec{attr: attr, expr: expr}
		}
	}
	if st.spec == nil {
		if s := m.ep.Load().pool.Lookup(rec.ID); s != nil {
			st.spec = &spec{attr: s.Attr, expr: s.Expr}
		}
	}
	if st.state == StateStale {
		m.enqueueLocked(st)
	}
}

// newEpoch wraps the pool in a published epoch with a warmed estimator.
func (m *Manager) newEpoch(pool *sit.Pool) *epoch {
	est := core.NewEstimator(m.cat, pool, m.cfg.model())
	if m.cfg.Cache != nil {
		est.Cache = m.cfg.Cache
	}
	return &epoch{pool: pool, est: est}
}

// Pool returns the published epoch's pool. In-flight users keep their
// pointer across hot-swaps; new calls see the newest epoch.
func (m *Manager) Pool() *sit.Pool { return m.ep.Load().pool }

// Estimator returns the published epoch's estimator — the estimation entry
// point for manager-fronted callers. The only cost over a bare estimator is
// this one atomic load.
func (m *Manager) Estimator() *core.Estimator { return m.ep.Load().est }

// Generation returns the published epoch's current pool generation.
func (m *Manager) Generation() uint64 { return m.ep.Load().pool.Generation() }

// Start launches the rebuild workers. It is an error to Start a running
// manager. The context bounds every worker: cancel it (or call Stop) to
// drain.
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return fmt.Errorf("lifecycle: manager already running")
	}
	wctx, cancel := context.WithCancel(ctx)
	m.cancel = cancel
	m.running = true
	n := m.cfg.workers()
	m.mu.Unlock()

	m.wg.Add(n)
	for i := 0; i < n; i++ {
		go m.worker(wctx)
	}
	return nil
}

// Stop cancels the workers, waits for them to drain, and — when persistence
// is configured — writes a final checkpoint. Safe to call once per Start.
func (m *Manager) Stop() error {
	m.mu.Lock()
	cancel := m.cancel
	m.cancel = nil
	running := m.running
	m.running = false
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if running {
		m.wg.Wait()
	}
	if m.cfg.Dir == "" {
		return nil
	}
	_, err := m.Checkpoint()
	return err
}

// worker drains the rebuild queue until the context is canceled.
func (m *Manager) worker(ctx context.Context) {
	defer m.wg.Done()
	for ctx.Err() == nil {
		m.mu.Lock()
		if len(m.pending) == 0 {
			m.mu.Unlock()
			select {
			case <-ctx.Done():
			case <-m.wake:
			}
			continue
		}
		id := m.pending[0]
		m.pending = m.pending[1:]
		if len(m.pending) > 0 {
			m.wakeWorker() // an idle worker takes the next one
		}
		m.mu.Unlock()
		m.process(ctx, id)
	}
}

// wakeWorker puts the wake token in its channel unless it is there already.
func (m *Manager) wakeWorker() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// stateLocked returns (creating if needed) the state entry for id.
func (m *Manager) stateLocked(id string) *sitState {
	st, ok := m.states[id]
	if !ok {
		st = &sitState{id: id, baseline: 1}
		if s := m.ep.Load().pool.Lookup(id); s != nil {
			st.spec = &spec{attr: s.Attr, expr: s.Expr}
		}
		m.states[id] = st
	}
	return st
}

// markStaleLocked transitions a statistic to stale and queues it. The drift
// accumulator keeps its value (it documents why the statistic went stale)
// until a rebuild that changes the statistic resets it.
func (m *Manager) markStaleLocked(st *sitState, reason string) {
	if st.state == StateParked || st.state == StateRebuilding {
		return
	}
	st.state = StateStale
	st.reason = reason
	st.attempts = 0
	m.enqueueLocked(st)
}

// enqueueLocked appends the statistic to the rebuild queue unless it is
// already waiting, and wakes a worker. The queue holds each statistic at
// most once, so it is never full and every stale statistic is queued.
func (m *Manager) enqueueLocked(st *sitState) {
	if st.queued {
		return
	}
	st.queued = true
	m.pending = append(m.pending, st.id)
	m.wakeWorker()
}

// inService reports whether the statistic is serving and not yet handled by
// the rebuild loop: healthy or structural.
func (st *sitState) inService() bool {
	return st.state == StateHealthy || st.state == StateStructural
}

// syncQuarantineLocked folds the published pool's quarantine ledger into the
// state machine: every quarantined statistic that is not already being
// handled goes stale (a rebuild is how quarantine heals).
func (m *Manager) syncQuarantineLocked() {
	for _, rec := range m.ep.Load().pool.HealthSnapshot().Records {
		st := m.stateLocked(rec.ID)
		if st.inService() {
			m.markStaleLocked(st, "quarantined: "+rec.Reason)
		}
	}
}

// SyncQuarantine scans the published pool for quarantined statistics and
// queues them for rebuild. The manager calls it itself at construction and
// after every swap; it is exported for callers that quarantine directly.
func (m *Manager) SyncQuarantine() {
	m.mu.Lock()
	m.syncQuarantineLocked()
	m.mu.Unlock()
}

// MarkStale forces the statistic into the rebuild loop (operator control).
// It reports whether the ID is known to the published pool.
func (m *Manager) MarkStale(id, reason string) bool {
	if m.ep.Load().pool.Lookup(id) == nil {
		return false
	}
	m.mu.Lock()
	m.markStaleLocked(m.stateLocked(id), reason)
	m.mu.Unlock()
	return true
}

// Revive returns a parked statistic to the rebuild loop. It reports whether
// the ID named a parked statistic.
func (m *Manager) Revive(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[id]
	if !ok || st.state != StateParked {
		return false
	}
	st.state = StateStale
	st.attempts = 0
	st.reason = "revived"
	m.enqueueLocked(st)
	return true
}

// Observe feeds one execution-feedback observation — the estimated and true
// cardinality of a (sub-)query — into the drift detector against the current
// epoch. Use ObserveAt when the estimate's pool generation is known (robust
// Provenance carries it) so observations computed against a retired epoch
// are discarded instead of mis-attributed.
func (m *Manager) Observe(q *engine.Query, set engine.PredSet, estCard, trueCard float64) {
	m.observe(m.ep.Load(), q, set, estCard, trueCard)
}

// ObserveAt is Observe with an epoch guard: gen must be the pool generation
// the estimate was produced against (robust.Provenance.Generation). An
// observation from a retired generation is counted in
// Health.DroppedObservations and otherwise ignored — its error says nothing
// about the statistics now in service.
func (m *Manager) ObserveAt(gen uint64, q *engine.Query, set engine.PredSet, estCard, trueCard float64) {
	ep := m.ep.Load()
	if ep.pool.Generation() != gen {
		m.dropped.Add(1)
		return
	}
	m.observe(ep, q, set, estCard, trueCard)
}

// observe charges the observation's q-error to the pool statistics that the
// epoch's chosen decomposition of (q, set) read (a derived SIT charges the
// pool statistic it was derived from), and marks those whose EWMA reaches
// DriftThreshold × baseline stale. A structural statistic's baseline follows
// its EWMA down, so error that another statistic's drift once charged to it
// does not outlast that drift. The decomposition is recomputed on the
// epoch's estimator outside m.mu: with the epoch's cross-query cache warm it
// is a cache hit, without one it is a full DP of the query. The charge
// assumes the answer came from the full DP: a lower ladder tier reads other
// statistics, which the observation does not name.
func (m *Manager) observe(ep *epoch, q *engine.Query, set engine.PredSet, estCard, trueCard float64) {
	run := ep.est.NewRun(q)
	read := run.SITsRead(set)
	run.Release()
	charged := read[:0]
	for _, s := range read {
		if !slices.Contains(charged, s) {
			charged = append(charged, s)
		}
	}
	if len(charged) == 0 {
		return
	}
	qerr := qError(estCard, trueCard)
	alpha := m.cfg.alpha()
	thresh := m.cfg.driftThreshold()
	minObs := m.cfg.minObservations()

	m.mu.Lock()
	for _, s := range charged {
		st := m.stateLocked(s.ID())
		if st.spec == nil {
			st.spec = &spec{attr: s.Attr, expr: s.Expr}
		}
		if st.obs == 0 {
			st.ewma = qerr
		} else {
			st.ewma = alpha*qerr + (1-alpha)*st.ewma
		}
		st.obs++
		if st.state == StateStructural {
			st.baseline = math.Max(1, math.Min(st.baseline, st.ewma))
		}
		if limit := thresh * st.baseline; st.inService() && st.obs >= minObs && st.ewma >= limit {
			m.markStaleLocked(st, fmt.Sprintf("drift: q-error EWMA %.2f ≥ %.2f over %d observations", st.ewma, limit, st.obs))
		}
	}
	m.mu.Unlock()
}

// qError is the symmetric estimation error, ≥ 1, with +1 smoothing so empty
// results do not divide by zero.
func qError(est, truth float64) float64 {
	a, b := est+1, truth+1
	if a <= 0 || b <= 0 {
		return 1
	}
	if a < b {
		return b / a
	}
	return a / b
}

// process handles one queued statistic: rebuild with retries under the
// deterministic backoff schedule, publish on success, park on exhaustion.
// Cancellation mid-backoff returns the statistic to the queue as stale, so
// the next Start's workers resume it.
func (m *Manager) process(ctx context.Context, id string) {
	m.mu.Lock()
	st, ok := m.states[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	st.queued = false
	if st.state != StateStale {
		m.mu.Unlock()
		return
	}
	st.state = StateRebuilding
	sp := st.spec
	m.mu.Unlock()

	if sp == nil {
		m.park(id, "no rebuild spec available (statistic never registered cleanly)")
		return
	}

	maxRetries := m.cfg.maxRetries()
	for attempt := 0; ; attempt++ {
		s, err := m.rebuildOnce(sp)
		if err == nil {
			m.publish(id, s)
			return
		}
		m.failures.Add(1)
		if attempt+1 >= maxRetries {
			m.park(id, fmt.Sprintf("rebuild failed %d times, last: %v", attempt+1, err))
			return
		}
		m.mu.Lock()
		st.attempts = attempt + 1
		m.mu.Unlock()
		delay := Backoff(m.cfg.BackoffBase, m.cfg.BackoffCap, m.cfg.Seed, id, attempt)
		if m.sleep(ctx, delay) != nil {
			// Shutting down mid-backoff: queue the statistic again so the
			// next run resumes it; never spin.
			m.mu.Lock()
			if st.state == StateRebuilding {
				st.state = StateStale
				m.enqueueLocked(st)
			}
			m.mu.Unlock()
			return
		}
	}
}

// rebuildOnce runs one rebuild attempt through the fault harness.
func (m *Manager) rebuildOnce(sp *spec) (*sit.SIT, error) {
	if faults.Active().Fire(faults.RebuildFail) {
		return nil, faults.Injected{Point: faults.RebuildFail}
	}
	rebuild := m.cfg.Rebuild
	if rebuild == nil {
		rebuild = m.defaultRebuild
	}
	s, err := rebuild(sp.attr, sp.expr)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("rebuild returned no statistic")
	}
	return s, nil
}

// defaultRebuild executes the spec's expression against the catalog's own
// data. Each call uses a fresh builder: the builder's internal caches are
// not concurrency-safe, and workers rebuild in parallel.
func (m *Manager) defaultRebuild(attr engine.AttrID, expr []engine.Pred) (s *sit.SIT, err error) {
	defer func() {
		//lint:ignore ladderguard the swallowed panic is converted to the returned error, which process records in the statistic's park reason — same observability contract, different channel
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("rebuild panicked: %v", r)
		}
	}()
	return sit.NewBuilder(m.cat).Build(attr, expr), nil
}

// park takes the statistic out of the rebuild loop with the reason recorded.
func (m *Manager) park(id, reason string) {
	m.mu.Lock()
	st := m.stateLocked(id)
	st.state = StateParked
	st.reason = reason
	m.mu.Unlock()
}

// publish installs a successful rebuild. A rebuild that reproduces what the
// published pool serves (sit.Pool.Serves) would change no answer, so it
// publishes nothing: no epoch, no generation bump. The statistic's feedback
// error is then structural (the independence assumptions of the
// decompositions that read it), and its EWMA becomes the baseline drift is
// judged against. Any other rebuild hot-swaps a new epoch and, under the
// same lock, counts the swap and returns the statistic to healthy at
// baseline 1, so a caller that sees one sees the other. Swaps are
// serialized by m.mu so concurrent workers cannot lose each other's
// statistic; the store itself is atomic, so readers switch epochs without
// ever seeing a half-built pool. The retired generation's cache entries
// stay until the LRU evicts them: no published run asks for their keys.
func (m *Manager) publish(id string, s *sit.SIT) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rebuilds.Add(1)
	old := m.ep.Load()
	st := m.stateLocked(id)
	st.attempts = 0
	if old.pool.Serves(s) {
		st.state = StateStructural
		st.baseline = math.Max(1, st.ewma)
		st.reason = fmt.Sprintf("structural: the rebuild reproduced the statistic at q-error EWMA %.2f", st.baseline)
		return
	}
	m.ep.Store(m.newEpoch(old.pool.Rebuilt(s)))
	m.swaps.Add(1)
	st.state = StateHealthy
	st.reason = ""
	st.ewma = 0
	st.obs = 0
	st.baseline = 1
	st.healed++
	st.spec = &spec{attr: s.Attr, expr: s.Expr}
	m.syncQuarantineLocked()
}

// sleep waits out a backoff delay, honoring cancellation.
func (m *Manager) sleep(ctx context.Context, d time.Duration) error {
	if m.cfg.Sleep != nil {
		return m.cfg.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Checkpoint writes a crash-safe snapshot of the published pool and the
// lifecycle state machine, returning the file written. On success the
// sequence advances and old generations beyond Config.Keep are pruned. A
// torn write (injected or real) returns an error; the previous snapshot
// generation stays on disk untouched, which is exactly what recovery will
// load.
func (m *Manager) Checkpoint() (string, error) {
	if m.cfg.Dir == "" {
		return "", fmt.Errorf("lifecycle: no snapshot directory configured")
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	// Fold the pool's quarantine ledger into the state machine first: the
	// pool snapshot cannot carry quarantined statistics (Encode skips them),
	// so their rebuild specs survive restarts only through state records.
	m.SyncQuarantine()
	ep := m.ep.Load()

	var poolBuf bytes.Buffer
	if err := ep.pool.Encode(&poolBuf); err != nil {
		return "", fmt.Errorf("lifecycle: encoding pool: %w", err)
	}

	m.mu.Lock()
	seq := m.seq + 1
	payload := snapshotPayload{Pool: poolBuf.Bytes(), Seq: seq}
	ids := make([]string, 0, len(m.states))
	for id := range m.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := m.states[id]
		rec := stateRecord{
			ID:       st.id,
			State:    st.state.String(),
			Attempts: st.attempts,
			Reason:   st.reason,
			EWMA:     st.ewma,
			Obs:      st.obs,
			Healed:   st.healed,
		}
		if st.baseline > 1 {
			rec.Baseline = st.baseline
		}
		if st.spec != nil {
			rec.Spec = encodeSpec(m.cat, st.spec.attr, st.spec.expr)
		}
		payload.States = append(payload.States, rec)
	}
	m.mu.Unlock()

	for _, qr := range ep.pool.HealthSnapshot().Records {
		payload.Quarantined = append(payload.Quarantined, quarRecord{ID: qr.ID, Reason: qr.Reason})
	}

	data, err := json.Marshal(&payload)
	if err != nil {
		return "", fmt.Errorf("lifecycle: encoding snapshot: %w", err)
	}
	path, err := writeSnapshot(m.cfg.Dir, seq, data)
	if err != nil {
		return path, err
	}
	m.mu.Lock()
	m.seq = seq
	m.mu.Unlock()
	pruneSnapshots(m.cfg.Dir, m.cfg.keep())
	return path, nil
}

// Counters is the allocation-light slice of Health a metrics scrape reads:
// state counts and lifetime counters, no per-statistic records.
type Counters struct {
	Healthy, Stale, Rebuilding, Parked    int
	Structural                            int
	PoolGeneration                        uint64
	Rebuilds, Failures, Swaps, DroppedObs int64
	CheckpointSeq                         uint64
	CorruptSnapshots                      int
}

// CountersSnapshot reports the manager's state counts and lifetime counters
// without materializing per-statistic records — cheap enough to call on
// every metrics scrape.
func (m *Manager) CountersSnapshot() Counters {
	c := Counters{
		PoolGeneration: m.Generation(),
		Rebuilds:       m.rebuilds.Load(),
		Failures:       m.failures.Load(),
		Swaps:          m.swaps.Load(),
		DroppedObs:     m.dropped.Load(),
	}
	m.mu.Lock()
	c.CheckpointSeq = m.seq
	c.CorruptSnapshots = len(m.corrupt)
	tracked := len(m.states)
	for _, st := range m.states {
		switch st.state {
		case StateHealthy:
			c.Healthy++
		case StateStale:
			c.Stale++
		case StateRebuilding:
			c.Rebuilding++
		case StateParked:
			c.Parked++
		case StateStructural:
			c.Structural++
		}
	}
	m.mu.Unlock()
	// Pool statistics with no state record yet are healthy by definition.
	if extra := m.ep.Load().pool.Size() - tracked; extra > 0 {
		c.Healthy += extra
	}
	if c.Healthy < 0 {
		c.Healthy = 0
	}
	return c
}

// Health reports the manager's current world: state counts, lifetime
// counters, the published generation, corrupt snapshots found at recovery,
// and per-statistic records in ID order.
func (m *Manager) Health() Health {
	h := Health{
		PoolGeneration:      m.Generation(),
		Rebuilds:            m.rebuilds.Load(),
		Failures:            m.failures.Load(),
		Swaps:               m.swaps.Load(),
		DroppedObservations: m.dropped.Load(),
	}
	m.mu.Lock()
	h.CheckpointSeq = m.seq
	h.CorruptSnapshots = append([]SnapshotIssue(nil), m.corrupt...)
	h.States = make([]StatusRecord, 0, len(m.states))
	for _, st := range m.states {
		h.States = append(h.States, StatusRecord{
			ID: st.id, State: st.state, EWMA: st.ewma, Obs: st.obs, Baseline: st.baseline,
			Attempts: st.attempts, Healed: st.healed, Reason: st.reason,
		})
	}
	m.mu.Unlock()
	sort.Slice(h.States, func(i, j int) bool { return h.States[i].ID < h.States[j].ID })
	for _, rec := range h.States {
		switch rec.State {
		case StateHealthy:
			h.Healthy++
		case StateStale:
			h.Stale++
		case StateRebuilding:
			h.Rebuilding++
		case StateParked:
			h.Parked++
		case StateStructural:
			h.Structural++
		}
	}
	// Pool statistics with no state record yet are healthy by definition.
	h.Healthy += m.ep.Load().pool.Size() - len(h.States)
	if h.Healthy < 0 {
		h.Healthy = 0
	}
	return h
}
