package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// GateDP is the CI alloc-gate check: given a freshly measured dp report and
// the committed BENCH_dp.json artifact, it fails if either memory-discipline
// or performance regressed.
//
// Two checks, per cell:
//
//   - Allocation: the cached path must allocate nothing — CachedAllocsPerOp
//     must be exactly zero. This is absolute, not relative to the artifact:
//     zero is the contract, and a "small" regression to 2 allocs/op is still
//     a broken contract.
//
//   - Time: CI machines are slower and noisier than the machine that
//     produced the committed artifact, so raw ns/op can't be compared across
//     them. What is comparable is the cached/optimized ratio — both sides
//     are measured in the same process on the same hardware, so machine
//     speed divides out. The fresh ratio may not exceed the artifact's ratio
//     by more than maxRegress (e.g. 0.10 for +10%) plus a small absolute
//     slack (gateRatioSlack): cached ops cost single-digit microseconds, so
//     the ratio sits near 0.001–0.01 and sub-microsecond timer wobble would
//     otherwise trip a purely relative bound. The slack is far below any
//     real regression — string keys, allocation or an exclusive lock on
//     the cached path move the ratio by an order of magnitude. It does not
//     catch the selcache's uncontended shared read lock, which costs tens
//     of nanoseconds per lookup and stays inside the bound. Cells are
//     matched by (n, model, mode); fresh cells with no artifact counterpart
//     (e.g. a CI run over a size subset) are skipped, not failed.
//
// A nil error means the gate passes. All violations are collected before
// returning, so one CI run reports every regressed cell at once.

// gateRatioSlack is the absolute cached/optimized-ratio tolerance added on
// top of the relative maxRegress bound (see the Time check above): 0.005
// means "the cached path may drift by up to half a percent of the optimized
// compute time" — an order of magnitude below the cheapest regression worth
// failing a build over, an order of magnitude above timer noise on a
// microsecond-scale measurement.
const gateRatioSlack = 0.005

func GateDP(fresh DPBenchReport, artifactPath string, maxRegress float64) error {
	f, err := os.Open(artifactPath)
	if err != nil {
		return fmt.Errorf("bench: gate artifact: %w", err)
	}
	defer f.Close()
	env, err := ReadReport(f)
	if err != nil {
		return err
	}
	if env.Figure != "dp" {
		return fmt.Errorf("bench: gate artifact %s holds figure %q, want \"dp\"", artifactPath, env.Figure)
	}
	var artifact DPBenchReport
	if err := json.Unmarshal(env.Payload, &artifact); err != nil {
		return fmt.Errorf("bench: gate artifact payload: %w", err)
	}

	type cellKey struct {
		N           int
		Model, Mode string
	}
	committed := make(map[cellKey]DPBenchCell, len(artifact.Cells))
	for _, c := range artifact.Cells {
		committed[cellKey{c.N, c.Model, c.Mode}] = c
	}

	var violations []string
	for _, c := range fresh.Cells {
		if c.CachedAllocsPerOp != 0 {
			violations = append(violations, fmt.Sprintf(
				"n=%d %s/%s: cached path allocates %.1f objects/op (%.1f B/op), want 0",
				c.N, c.Model, c.Mode, c.CachedAllocsPerOp, c.CachedBytesPerOp))
		}
		base, ok := committed[cellKey{c.N, c.Model, c.Mode}]
		if !ok || base.OptimizedNsPerOp <= 0 || base.CachedNsPerOp <= 0 || c.OptimizedNsPerOp <= 0 {
			continue
		}
		freshRatio := c.CachedNsPerOp / c.OptimizedNsPerOp
		baseRatio := base.CachedNsPerOp / base.OptimizedNsPerOp
		if freshRatio > baseRatio*(1+maxRegress)+gateRatioSlack {
			violations = append(violations, fmt.Sprintf(
				"n=%d %s/%s: cached/optimized ratio %.4f exceeds committed %.4f by more than %.0f%% (+%.4f slack)",
				c.N, c.Model, c.Mode, freshRatio, baseRatio, maxRegress*100, gateRatioSlack))
		}
	}
	if len(violations) > 0 {
		msg := "bench: dp gate failed:"
		for _, v := range violations {
			msg += "\n  " + v
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
