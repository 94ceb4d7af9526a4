// Package faults is a deterministic fault-injection harness for the
// estimation stack. Production estimators must keep answering when
// statistics are corrupt, a factor computation panics, or the DP blows its
// latency budget; this package lets tests drive exactly those failures
// through the real code paths, reproducibly.
//
// Injection points are compiled into the hot paths permanently but sit
// behind a process-wide atomic pointer: when no schedule is armed, a call
// site pays one atomic load plus a nil check and nothing else, so the
// un-armed estimator is bit-identical (and, within noise, speed-identical)
// to one built without the harness. Tests arm a Schedule describing which
// points fire on which hit numbers; every decision is a pure function of
// the schedule (rules plus seed) and the per-point hit counter, so a
// single-goroutine run replays identically under the same schedule.
//
// Arming is process-global. Tests that arm a schedule must not run in
// parallel with tests that assume a fault-free estimator (within one test
// binary, keep fault tests serial; `go test ./...` isolates packages in
// separate processes).
package faults

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Point is one injection site wired into the estimation stack.
type Point uint8

const (
	// CorruptBucket makes SIT histogram validation report a corrupt bucket,
	// driving the pool's quarantine machinery (internal/sit).
	CorruptBucket Point = iota
	// NaNSelectivity replaces a conditional factor's selectivity with NaN
	// (internal/core.ApproxFactor).
	NaNSelectivity
	// SlowFactor delays a conditional factor computation by the schedule's
	// SlowFactorDelay, or until the run's deadline, for deadline/timeout
	// testing (internal/core).
	SlowFactor
	// PanicInFactor panics inside a conditional factor computation with an
	// Injected value (internal/core.ApproxFactor).
	PanicInFactor
	// CacheEvictStorm drops every entry of the cross-query selectivity
	// cache ahead of a lookup (internal/selcache).
	CacheEvictStorm
	// SnapshotTornWrite truncates a lifecycle pool snapshot mid-payload —
	// modeling a crash between the data write and its fsync — so recovery
	// code must detect the torn file and fall back a generation
	// (internal/lifecycle).
	SnapshotTornWrite
	// RebuildFail makes a statistics rebuild attempt fail, driving the
	// lifecycle manager's retry/backoff/park machinery (internal/lifecycle).
	RebuildFail
	// FsyncError makes the snapshot writer's fsync report an I/O error
	// before the atomic rename (internal/lifecycle).
	FsyncError
	// NetPartition makes a cluster transport call fail as if the peer were
	// unreachable across a network partition (internal/cluster).
	NetPartition
	// NetSlowPeer delays a cluster transport call by the schedule's
	// SlowFactorDelay before it proceeds, for remote-deadline testing
	// (internal/cluster).
	NetSlowPeer
	// NetTruncatedStream cuts a shard replication stream mid-frame, so the
	// wire decoder must reject the truncated SITSNAP payload
	// (internal/cluster).
	NetTruncatedStream
	// NetStaleEpoch replays the oldest frame ever served for the peer in
	// place of the current one, so epoch fencing must reject it
	// (internal/cluster).
	NetStaleEpoch
	// NetDuplicateDelivery re-delivers the previously delivered frame for
	// the peer, so admission must be idempotent (internal/cluster).
	NetDuplicateDelivery

	// NumPoints is the number of injection points.
	NumPoints
)

// String returns the point's schedule name.
func (p Point) String() string {
	switch p {
	case CorruptBucket:
		return "corrupt-bucket"
	case NaNSelectivity:
		return "nan-selectivity"
	case SlowFactor:
		return "slow-factor"
	case PanicInFactor:
		return "panic-in-factor"
	case CacheEvictStorm:
		return "cache-evict-storm"
	case SnapshotTornWrite:
		return "snapshot-torn-write"
	case RebuildFail:
		return "rebuild-fail"
	case FsyncError:
		return "fsync-error"
	case NetPartition:
		return "net-partition"
	case NetSlowPeer:
		return "net-slow-peer"
	case NetTruncatedStream:
		return "net-truncated-stream"
	case NetStaleEpoch:
		return "net-stale-epoch"
	case NetDuplicateDelivery:
		return "net-duplicate-delivery"
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Injected is the panic value thrown by panic-type faults, so recovery code
// can distinguish injected failures from genuine bugs in diagnostics.
type Injected struct {
	Point Point
}

// Error implements error; Injected values also read well as panic payloads.
func (i Injected) Error() string { return "fault injection: " + i.Point.String() }

// Rule schedules one injection point over that point's hit sequence (hits
// are numbered from 1 in arrival order). An armed point fires on hit n when
//
//	n ≥ Start, (n-Start) is a multiple of Every, fewer than Limit prior
//	fires, and — if Prob ∈ (0,1) — the seeded hash of (seed, point, n)
//	lands below Prob.
//
// Zero values take defaults: Start 1, Every 1, Limit unlimited, Prob off
// (fire deterministically whenever the counters say so).
type Rule struct {
	Start int     // first eligible hit number (default 1)
	Every int     // fire every Every-th eligible hit (default 1)
	Limit int     // maximum number of fires (0 = unlimited)
	Prob  float64 // eligible-hit fire probability, derived from the seed
}

// Schedule is an immutable-after-arm set of rules plus per-point counters.
// Fire decisions are deterministic in (rules, Seed, per-point hit number);
// counters are atomic so concurrent estimation goroutines can share one
// armed schedule, with per-goroutine determinism traded only where the
// interleaving itself is racy.
type Schedule struct {
	// Seed drives the Prob hash; schedules with different seeds fire
	// probabilistic rules on different (but per-seed reproducible) hits.
	Seed int64
	// SlowFactorDelay is how long a firing SlowFactor point sleeps at most
	// (default 2ms).
	SlowFactorDelay time.Duration

	rules [NumPoints]Rule
	armed [NumPoints]bool
	hits  [NumPoints]atomic.Int64
	fires [NumPoints]atomic.Int64
}

// NewSchedule returns an empty schedule (no point armed) with the seed.
func NewSchedule(seed int64) *Schedule {
	return &Schedule{Seed: seed, SlowFactorDelay: 2 * time.Millisecond}
}

// Set arms the point with the rule and returns the schedule for chaining.
// Call before Arm, never after (rules are read without synchronization).
func (s *Schedule) Set(p Point, r Rule) *Schedule {
	if r.Start <= 0 {
		r.Start = 1
	}
	if r.Every <= 0 {
		r.Every = 1
	}
	s.rules[p] = r
	s.armed[p] = true
	return s
}

// Hits returns how many times the point has been reached.
func (s *Schedule) Hits(p Point) int64 {
	if s == nil {
		return 0
	}
	return s.hits[p].Load()
}

// Fires returns how many times the point actually fired.
func (s *Schedule) Fires(p Point) int64 {
	if s == nil {
		return 0
	}
	return s.fires[p].Load()
}

// Fire records a hit at the point and reports whether the fault fires. It
// is nil-safe (a nil schedule never fires) so call sites can hold the
// Active() result without re-checking.
func (s *Schedule) Fire(p Point) bool {
	if s == nil || !s.armed[p] {
		return false
	}
	r := s.rules[p]
	n := s.hits[p].Add(1)
	if n < int64(r.Start) || (n-int64(r.Start))%int64(r.Every) != 0 {
		return false
	}
	if r.Prob > 0 && r.Prob < 1 && !s.probFire(p, n, r.Prob) {
		return false
	}
	if r.Limit > 0 {
		for {
			f := s.fires[p].Load()
			if f >= int64(r.Limit) {
				return false
			}
			if s.fires[p].CompareAndSwap(f, f+1) {
				return true
			}
		}
	}
	s.fires[p].Add(1)
	return true
}

// probFire hashes (seed, point, hit) with splitmix64 and fires when the
// result, mapped to [0,1), lands below prob — seeded pseudo-randomness with
// no global state and no math/rand import.
func (s *Schedule) probFire(p Point, n int64, prob float64) bool {
	x := uint64(s.Seed)*0x9e3779b97f4a7c15 ^ uint64(p)<<56 ^ uint64(n)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < prob
}

// Sleep blocks for the schedule's SlowFactorDelay or until ctx is done,
// whichever comes first; call sites invoke it when the SlowFactor point
// fires, so an injected delay ends at the request's deadline.
func (s *Schedule) Sleep(ctx context.Context) {
	d := s.SlowFactorDelay
	if d <= 0 {
		d = 2 * time.Millisecond
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// active is the process-wide armed schedule; nil means the harness is off
// and every injection point is a no-op.
var active atomic.Pointer[Schedule]

// Arm installs the schedule process-wide. Passing nil disarms.
func Arm(s *Schedule) {
	active.Store(s)
}

// Disarm removes any armed schedule, returning every injection point to its
// no-op default.
func Disarm() {
	active.Store(nil)
}

// Active returns the armed schedule, or nil when the harness is off. Hot
// paths load it once per operation and pass the (possibly nil) pointer to
// Fire.
func Active() *Schedule {
	return active.Load()
}
