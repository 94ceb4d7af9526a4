package soak

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/lifecycle"
	"condsel/internal/robust"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// Phase names, in canonical arc order. The first three are estimation
// phases (workload mixes through the ladder); the last three drive the
// lifecycle arc: data drift + rebuild, fault injection + healing, and
// crash-safe snapshot recovery.
const (
	PhaseFlash       = "flash"
	PhaseChurn       = "churn"
	PhaseAdversarial = "adversarial"
	PhaseDrift       = "drift"
	PhaseFaults      = "faults"
	PhaseRecover     = "recover"
)

// AllPhases is the default phase sequence of one cycle.
var AllPhases = []string{
	PhaseFlash, PhaseChurn, PhaseAdversarial, PhaseDrift, PhaseFaults, PhaseRecover,
}

// Config tunes a soak run. The zero value of every field takes a default
// sized for a compressed-time CI arc (one full cycle in seconds).
type Config struct {
	// Seed drives everything: schema, data, workload, fault schedules. Same
	// seed (in Cycles mode) ⇒ same event log.
	Seed int64
	// Tables is the grown-schema table floor (default 104; rounded up to
	// whole 8-table clusters, sharded 64 tables per catalog).
	Tables int
	// FactRows is the total fact-table row budget across all clusters
	// (default 24000; each cluster gets at least 300).
	FactRows int
	// Cycles is how many full arcs to run (default 1). Ignored when
	// Duration is set.
	Cycles int
	// Duration, when positive, keeps cycling until the wall clock expires
	// (at least one full cycle always runs). Cycle count then depends on
	// host speed, so cross-run event-log determinism holds per cycle, not
	// for the whole log.
	Duration time.Duration
	// QueriesPerPhase is the stream length per estimation phase per shard
	// (default 32).
	QueriesPerPhase int
	// Joins/Filters shape the workload queries (defaults 3/2).
	Joins, Filters int
	// Phases selects and orders the phases of each cycle (default AllPhases).
	Phases []string
	// Dir is the snapshot root; empty uses a temporary directory removed
	// when Run returns.
	Dir string
	// Progress, when non-nil, receives one line per completed phase.
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Tables == 0 {
		c.Tables = 104
	}
	if c.FactRows == 0 {
		c.FactRows = 24000
	}
	if c.Cycles == 0 {
		c.Cycles = 1
	}
	if c.QueriesPerPhase == 0 {
		c.QueriesPerPhase = 32
	}
	if c.Joins == 0 {
		c.Joins = 3
	}
	if c.Filters == 0 {
		c.Filters = 2
	}
	if len(c.Phases) == 0 {
		c.Phases = AllPhases
	}
	return c
}

// hotSetSize is the per-shard hot set: the queries the SIT pools are built
// from, the flash-crowd phases replay, and the drift detector observes.
const hotSetSize = 8

// obsPasses is how many times each hot query's feedback is replayed during a
// drift burst; it exceeds the manager's MinObservations so every involved
// statistic's EWMA is trusted.
const obsPasses = 4

// shard is one 64-table estimation domain: its own catalog + data, workload
// generator, SIT pool, lifecycle manager, cross-query cache and truth
// evaluator. Queries never cross shards (engine.TableSet is a 64-bit set),
// which is how the harness grows past the per-catalog table cap.
type shard struct {
	db    *datagen.DB
	gen   *workload.Generator
	mgr   *lifecycle.Manager
	cache *core.SelCacheStore
	ev    *engine.Evaluator
	hot   []*engine.Query
	dir   string
}

// Harness owns one soak run.
type Harness struct {
	cfg    Config
	grown  *datagen.Grown
	shards []*shard
	rep    *Report
	tmpDir string // set when the harness created Dir itself

	lats []float64 // per-phase latency scratch, nanoseconds
}

// New builds the grown schema, one lifecycle-managed estimation domain per
// shard, and the SIT pools over each shard's hot set. Setup is deterministic
// in cfg.Seed.
func New(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	for _, p := range cfg.Phases {
		switch p {
		case PhaseFlash, PhaseChurn, PhaseAdversarial, PhaseDrift, PhaseFaults, PhaseRecover:
		default:
			return nil, fmt.Errorf("soak: unknown phase %q (have %s)", p, strings.Join(AllPhases, ","))
		}
	}

	clusters := (cfg.Tables + datagen.TablesPerCluster - 1) / datagen.TablesPerCluster
	perCluster := cfg.FactRows / clusters
	if perCluster < 300 {
		perCluster = 300
	}
	grown := datagen.GenerateGrown(datagen.GrownConfig{
		Config: datagen.Config{Seed: cfg.Seed, FactRows: perCluster},
		Tables: cfg.Tables,
	})

	h := &Harness{cfg: cfg, grown: grown}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "condsel-soak-")
		if err != nil {
			return nil, fmt.Errorf("soak: snapshot dir: %w", err)
		}
		h.tmpDir = dir
		cfg.Dir = dir
		h.cfg = cfg
	}

	for i, db := range grown.Shards {
		sh := &shard{
			db:  db,
			ev:  engine.NewEvaluator(db.Cat),
			dir: filepath.Join(cfg.Dir, fmt.Sprintf("shard%d", i)),
		}
		if err := os.MkdirAll(sh.dir, 0o755); err != nil {
			h.cleanup()
			return nil, fmt.Errorf("soak: shard dir: %w", err)
		}
		sh.gen = workload.NewGenerator(db, workload.Config{
			Seed:    cfg.Seed + int64(i)*1000003,
			Joins:   cfg.Joins,
			Filters: cfg.Filters,
		})
		for k := 0; k < hotSetSize; k++ {
			q, err := sh.gen.Query()
			if err != nil {
				h.cleanup()
				return nil, fmt.Errorf("soak: shard %d hot query %d: %w", i, k, err)
			}
			sh.hot = append(sh.hot, q)
		}
		pool := sit.BuildWorkloadPoolParallel(db.Cat, sh.hot, 2, runtime.GOMAXPROCS(0), nil)
		sh.cache = core.NewSelCache(1 << 16)
		sh.mgr = lifecycle.New(db.Cat, pool, lifecycle.Config{
			Workers:         2,
			Seed:            cfg.Seed + int64(i),
			Dir:             sh.dir,
			Cache:           sh.cache,
			DriftThreshold:  2,
			MinObservations: 3,
			Alpha:           0.5,
		})
		h.shards = append(h.shards, sh)
	}
	return h, nil
}

func (h *Harness) cleanup() {
	if h.tmpDir != "" {
		os.RemoveAll(h.tmpDir)
	}
}

// Run executes the configured cycles and returns the unified report. The
// context bounds the whole run: cancellation stops at the next phase
// boundary and returns the partial report alongside the context's error.
func (h *Harness) Run(ctx context.Context) (*Report, error) {
	cfg := h.cfg
	h.rep = &Report{
		Seed:         cfg.Seed,
		Tables:       h.grown.Tables,
		Clusters:     h.grown.Clusters,
		Shards:       len(h.grown.Shards),
		FactRows:     h.grown.Rows(),
		TierTotals:   make(map[string]int64),
		BitIdentical: true,
	}
	defer h.cleanup()
	for _, sh := range h.shards {
		if err := sh.mgr.Start(ctx); err != nil {
			return h.rep, fmt.Errorf("soak: lifecycle start: %w", err)
		}
	}
	defer func() {
		for _, sh := range h.shards {
			sh.mgr.Stop()
		}
	}()

	start := time.Now()
	cycle := 0
	for ; h.more(cycle, start); cycle++ {
		for _, phase := range cfg.Phases {
			if err := ctx.Err(); err != nil {
				h.finish(cycle, start)
				return h.rep, err
			}
			var err error
			switch phase {
			case PhaseFlash, PhaseChurn, PhaseAdversarial:
				err = h.estimationPhase(ctx, cycle, phase, false)
			case PhaseDrift:
				err = h.driftPhase(ctx, cycle)
			case PhaseFaults:
				err = h.faultsPhase(ctx, cycle)
			case PhaseRecover:
				err = h.recoverPhase(cycle)
			}
			if err != nil {
				h.finish(cycle, start)
				return h.rep, err
			}
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "soak: cycle %d phase %s done\n", cycle, phase)
			}
		}
	}
	h.finish(cycle, start)
	return h.rep, nil
}

// more reports whether another cycle should run: Duration mode cycles until
// the clock expires (always at least once), Cycles mode counts.
func (h *Harness) more(cycle int, start time.Time) bool {
	if h.cfg.Duration > 0 {
		return cycle == 0 || time.Since(start) < h.cfg.Duration
	}
	return cycle < h.cfg.Cycles
}

// finish stamps the run-level aggregates.
func (h *Harness) finish(cycles int, start time.Time) {
	r := h.rep
	r.Cycles = cycles
	r.DurationSeconds = time.Since(start).Seconds()
	if r.DurationSeconds > 0 {
		r.QueriesPerSec = float64(r.TotalQueries) / r.DurationSeconds
	}
	if r.FaultFreeQueries > 0 {
		r.FaultFreeNoSITPct = 100 * float64(r.FaultFreeNoSIT) / float64(r.FaultFreeQueries)
	}
	for _, sh := range h.shards {
		hl := sh.mgr.Health()
		r.Rebuilds += hl.Rebuilds
		r.Failures += hl.Failures
		r.Swaps += hl.Swaps
		r.Parked += int64(hl.Parked)
		st := sh.cache.Stats()
		r.CacheHits += st.Hits
		r.CacheMisses += st.Misses
		r.CacheEvictions += st.Evictions
	}
}

// event appends one deterministic entry to the log.
func (h *Harness) event(cycle int, phase, kind, detail string) {
	h.rep.Events = append(h.rep.Events, Event{
		Seq: len(h.rep.Events), Cycle: cycle, Phase: phase, Kind: kind, Detail: detail,
	})
}

// cacheTotals sums the shard caches' counters.
func (h *Harness) cacheTotals() (hits, misses, evictions int64) {
	for _, sh := range h.shards {
		st := sh.cache.Stats()
		hits += st.Hits
		misses += st.Misses
		evictions += st.Evictions
	}
	return
}

// lifeTotals sums the shard managers' lifetime counters.
func (h *Harness) lifeTotals() (rebuilds, failures, swaps int64) {
	for _, sh := range h.shards {
		hl := sh.mgr.Health()
		rebuilds += hl.Rebuilds
		failures += hl.Failures
		swaps += hl.Swaps
	}
	return
}

// estimationPhase streams one workload mix per shard through the ladder over
// the lifecycle-fronted estimator. Estimation is single-threaded and no
// feedback is produced, so every recorded count is deterministic. With
// faulted set the phase's tier counts are excluded from the fault-free
// quality metric.
func (h *Harness) estimationPhase(ctx context.Context, cycle int, phase string, faulted bool) error {
	var spec workload.PhaseSpec
	switch phase {
	case PhaseFlash:
		spec = workload.PhaseSpec{Name: phase, Queries: h.cfg.QueriesPerPhase, Flash: 1, HotSetSize: hotSetSize}
	case PhaseChurn:
		spec = workload.PhaseSpec{Name: phase, Queries: h.cfg.QueriesPerPhase, Churn: 1}
	case PhaseAdversarial:
		spec = workload.PhaseSpec{Name: phase, Queries: h.cfg.QueriesPerPhase, Adversarial: 1}
	case PhaseFaults:
		spec = workload.PhaseSpec{Name: phase, Queries: h.cfg.QueriesPerPhase, Churn: 0.7, Adversarial: 0.3}
	}

	stat := PhaseStat{
		Cycle: cycle, Phase: phase,
		MixCounts:  make(map[string]int),
		TierCounts: make(map[string]int),
	}
	ch0, cm0, ce0 := h.cacheTotals()
	h.lats = h.lats[:0]
	begin := time.Now()
	for i, sh := range h.shards {
		stream, err := sh.gen.PhaseStream(spec)
		if err != nil {
			return fmt.Errorf("soak: cycle %d %s shard %d: %w", cycle, phase, i, err)
		}
		for _, pq := range stream {
			stat.MixCounts[pq.Kind.String()]++
			lad := robust.New(sh.mgr.Estimator(), robust.Config{})
			missesBefore := sh.cache.Stats().Misses
			qStart := time.Now()
			_, prov := lad.Selectivity(ctx, pq.Query, pq.Query.All())
			h.lats = append(h.lats, float64(time.Since(qStart).Nanoseconds()))
			if sh.cache.Stats().Misses == missesBefore {
				stat.CacheServed++
			}
			tier := prov.Tier.String()
			stat.TierCounts[tier]++
			if prov.Tier != robust.TierFullDP {
				stat.Degraded++
			}
			stat.Queries++
			h.rep.TierTotals[tier]++
			if !faulted {
				h.rep.FaultFreeQueries++
				if prov.Tier == robust.TierNoSIT {
					h.rep.FaultFreeNoSIT++
				}
			}
		}
	}
	stat.Seconds = time.Since(begin).Seconds()
	if stat.Seconds > 0 {
		stat.QueriesPerSec = float64(stat.Queries) / stat.Seconds
	}
	stat.P50Ms = percentile(h.lats, 0.50) / 1e6
	stat.P99Ms = percentile(h.lats, 0.99) / 1e6
	ch1, cm1, ce1 := h.cacheTotals()
	stat.CacheHits, stat.CacheMisses, stat.CacheEvictions = ch1-ch0, cm1-cm0, ce1-ce0
	h.rep.TotalQueries += int64(stat.Queries)
	h.rep.Phases = append(h.rep.Phases, stat)
	h.event(cycle, phase, "estimated", fmt.Sprintf("queries=%d mix=[%s] tiers=[%s] cache_hits=%d cache_misses=%d cache_served=%d",
		stat.Queries, fmtCounts(stat.MixCounts), fmtCounts(stat.TierCounts), stat.CacheHits, stat.CacheMisses, stat.CacheServed))
	return nil
}

// driftPhase mutates the data under the running stack and lets the lifecycle
// close the loop: Reskew inverts the skew of every measure and foreign key
// (so pre-drift SITs become maximally wrong), a feedback burst over the hot
// set — estimates pinned to the pre-drift epoch, truths from a fresh
// evaluator — drives the q-error EWMAs over the drift threshold, the rebuild
// workers heal the marked statistics, and each publication hot-swaps a new
// epoch and purges the retired generation's cache entries (a marked
// statistic the reskew did not change rebuilds to the same content and
// publishes nothing). One rebuild attempt per cycle is made to fail
// (faults.RebuildFail) to exercise the retry/backoff path. The phase ends
// with a bit-identity check: the manager-fronted estimates must equal a
// cache-free estimator over the published pool.
//
// The feedback burst runs with the shard's rebuild workers stopped. With
// workers live, an early rebuild hot-swaps the epoch mid-burst and the
// epoch guard starts dropping the rest of the burst — how much lands then
// depends on scheduler timing, and the marked set (hence the rebuild count
// in the event log) stops being deterministic. Stopping first makes the
// burst a barrier: every observation is applied synchronously against the
// pinned pre-drift epoch, and only then do the restarted workers drain the
// fully determined rebuild queue.
func (h *Harness) driftPhase(ctx context.Context, cycle int) error {
	stat := PhaseStat{Cycle: cycle, Phase: PhaseDrift}
	begin := time.Now()
	r0, f0, s0 := h.lifeTotals()
	_, _, ce0 := h.cacheTotals()

	invert := cycle%2 == 0
	h.grown.Reskew(h.cfg.Seed+int64(cycle)*7919, 3.0, invert)
	core.ResetHistJoinCache()
	for _, sh := range h.shards {
		sh.ev = engine.NewEvaluator(sh.db.Cat)
		sh.gen.Refresh()
	}
	h.event(cycle, PhaseDrift, "reskew", fmt.Sprintf("invert=%v tables=%d", invert, h.grown.Tables))

	faults.Arm(faults.NewSchedule(h.cfg.Seed+int64(cycle)).
		Set(faults.RebuildFail, faults.Rule{Limit: 1}))
	defer faults.Disarm()

	observed := 0
	for i, sh := range h.shards {
		if err := sh.mgr.Stop(); err != nil {
			return fmt.Errorf("soak: cycle %d drift shard %d stop: %w", cycle, i, err)
		}
		// Pin the pre-drift epoch: every estimate of the burst is computed
		// against the stale statistics, every truth against the reskewed
		// data, and the observations carry the pinned generation so none is
		// dropped as cross-epoch.
		est := sh.mgr.Estimator()
		gen := sh.mgr.Generation()
		type ob struct {
			q        *engine.Query
			est, tru float64
		}
		obs := make([]ob, 0, len(sh.hot))
		for _, q := range sh.hot {
			sel := est.NewRun(q).GetSelectivity(q.All()).Sel
			ts := engine.PredsTables(q.Cat, q.Preds, q.All())
			obs = append(obs, ob{
				q:   q,
				est: sel * q.Cat.CrossSize(ts),
				tru: sh.ev.Count(q.Tables, q.Preds, q.All()),
			})
		}
		for pass := 0; pass < obsPasses; pass++ {
			for _, o := range obs {
				sh.mgr.ObserveAt(gen, o.q, o.q.All(), o.est, o.tru)
				observed++
			}
		}
		if err := sh.mgr.Start(ctx); err != nil {
			return fmt.Errorf("soak: cycle %d drift shard %d restart: %w", cycle, i, err)
		}
		if err := quiesce(ctx, sh.mgr, 60*time.Second); err != nil {
			return fmt.Errorf("soak: cycle %d drift shard %d: %w", cycle, i, err)
		}
	}
	h.event(cycle, PhaseDrift, "observed", fmt.Sprintf("observations=%d", observed))

	r1, f1, s1 := h.lifeTotals()
	_, _, ce1 := h.cacheTotals()
	stat.Rebuilds, stat.Failures, stat.Swaps = r1-r0, f1-f0, s1-s0
	stat.CacheEvictions = ce1 - ce0
	h.event(cycle, PhaseDrift, "rebuilt", fmt.Sprintf("rebuilds=%d failures=%d swaps=%d evictions=%d",
		stat.Rebuilds, stat.Failures, stat.Swaps, stat.CacheEvictions))

	ok := h.verifyBitIdentity()
	h.event(cycle, PhaseDrift, "verified", fmt.Sprintf("bit_identical=%v", ok))

	stat.Seconds = time.Since(begin).Seconds()
	h.rep.Phases = append(h.rep.Phases, stat)
	return nil
}

// faultsPhase arms a deterministic schedule of timing-independent fault
// points and streams a cache-hostile mix through the ladder: NaN poisoning
// and factor panics force tier descents, eviction storms batter the cache,
// and bucket corruption quarantines statistics — which the managers then
// heal once the schedule is disarmed. SlowFactor and deadline-dependent
// points are deliberately absent: their firing depends on wall-clock timing
// and would break event-log determinism.
func (h *Harness) faultsPhase(ctx context.Context, cycle int) error {
	sched := faults.NewSchedule(h.cfg.Seed+int64(cycle)*131).
		Set(faults.NaNSelectivity, faults.Rule{Every: 5}).
		Set(faults.PanicInFactor, faults.Rule{Every: 7}).
		Set(faults.CacheEvictStorm, faults.Rule{Every: 11}).
		Set(faults.CorruptBucket, faults.Rule{Limit: 2})
	faults.Arm(sched)
	err := h.estimationPhase(ctx, cycle, PhaseFaults, true)
	faults.Disarm()
	if err != nil {
		return err
	}
	h.event(cycle, PhaseFaults, "fault-hits", fmt.Sprintf(
		"nan=%d panic=%d evict-storm=%d corrupt-bucket=%d",
		sched.Fires(faults.NaNSelectivity), sched.Fires(faults.PanicInFactor),
		sched.Fires(faults.CacheEvictStorm), sched.Fires(faults.CorruptBucket)))

	// Bucket corruption quarantined statistics inside the pools; fold the
	// quarantine ledgers into the managers and let the workers heal them.
	r0, _, _ := h.lifeTotals()
	for i, sh := range h.shards {
		sh.mgr.SyncQuarantine()
		if err := quiesce(ctx, sh.mgr, 60*time.Second); err != nil {
			return fmt.Errorf("soak: cycle %d faults shard %d: %w", cycle, i, err)
		}
	}
	r1, _, _ := h.lifeTotals()
	h.event(cycle, PhaseFaults, "healed", fmt.Sprintf("rebuilds=%d", r1-r0))
	return nil
}

// recoverPhase checkpoints every shard, injects a torn write into a second
// checkpoint, recovers a fresh manager from disk — which must reject the
// torn snapshot and fall back to the good one — and verifies the recovered
// estimates bit-identical to the running manager's.
func (h *Harness) recoverPhase(cycle int) error {
	stat := PhaseStat{Cycle: cycle, Phase: PhaseRecover}
	begin := time.Now()
	for i, sh := range h.shards {
		ref := estimateAll(sh.mgr.Estimator(), sh.hot)
		if _, err := sh.mgr.Checkpoint(); err != nil {
			return fmt.Errorf("soak: cycle %d recover shard %d checkpoint: %w", cycle, i, err)
		}

		faults.Arm(faults.NewSchedule(h.cfg.Seed+int64(cycle)*17).
			Set(faults.SnapshotTornWrite, faults.Rule{Limit: 1}))
		_, terr := sh.mgr.Checkpoint()
		faults.Disarm()
		h.event(cycle, PhaseRecover, "torn-checkpoint",
			fmt.Sprintf("shard=%d torn=%v", i, terr != nil))

		m2, err := lifecycle.Open(sh.db.Cat, nil, lifecycle.Config{Dir: sh.dir})
		if err != nil {
			return fmt.Errorf("soak: cycle %d recover shard %d open: %w", cycle, i, err)
		}
		corrupt := len(m2.Health().CorruptSnapshots)
		got := estimateAll(m2.Estimator(), sh.hot)
		ok := true
		for k := range ref {
			if got[k] != ref[k] {
				ok = false
			}
		}
		if !ok {
			h.rep.BitIdentical = false
		}
		h.rep.SnapshotRecoveries++
		h.rep.CorruptSnapshots += corrupt
		h.event(cycle, PhaseRecover, "recovered",
			fmt.Sprintf("shard=%d corrupt_snapshots=%d bit_identical=%v", i, corrupt, ok))
		stat.Queries += 2 * len(sh.hot)
	}
	stat.Seconds = time.Since(begin).Seconds()
	h.rep.Phases = append(h.rep.Phases, stat)
	return nil
}

// verifyBitIdentity compares, per shard, manager-fronted estimates of the
// hot set (shared cache, post-swap) against a cache-free estimator over the
// published pool. Any mismatch means a mixed-epoch cache value survived a
// hot-swap; it is recorded, not fatal, so the report shows how far the run
// got.
func (h *Harness) verifyBitIdentity() bool {
	ok := true
	for _, sh := range h.shards {
		ref := estimateAll(core.NewEstimator(sh.db.Cat, sh.mgr.Pool(), core.Diff{}), sh.hot)
		got := estimateAll(sh.mgr.Estimator(), sh.hot)
		for k := range ref {
			if got[k] != ref[k] {
				ok = false
			}
		}
	}
	if !ok {
		h.rep.BitIdentical = false
	}
	return ok
}

// quiesce waits until the manager has no stale or in-flight rebuilds left,
// polling under ctx so cancellation interrupts the wait.
func quiesce(ctx context.Context, m *lifecycle.Manager, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hl := m.Health()
		if hl.Stale == 0 && hl.Rebuilding == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lifecycle did not quiesce within %s (stale=%d rebuilding=%d)",
				timeout, hl.Stale, hl.Rebuilding)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// estimateAll returns the full-query selectivities of the queries.
func estimateAll(est *core.Estimator, queries []*engine.Query) []float64 {
	out := make([]float64, len(queries))
	for i, q := range queries {
		out[i] = est.NewRun(q).GetSelectivity(q.All()).Sel
	}
	return out
}

// percentile returns the p-quantile (0..1) by nearest rank over a copy.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

// fmtCounts renders a count map as "k=v k=v" with sorted keys — map order
// must never leak into the deterministic event log.
func fmtCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
