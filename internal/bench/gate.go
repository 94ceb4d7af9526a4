package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// GateDP is the CI alloc-gate check: given a freshly measured dp report and
// the committed BENCH_dp.json artifact, it fails if the cached path's memory
// discipline regressed.
//
// The check is absolute, per fresh cell: the cached path must allocate
// nothing — CachedAllocsPerOp must be exactly zero. Zero is the contract,
// and a "small" regression to 2 allocs/op is still a broken contract. The
// artifact only has to be a well-formed dp artifact; its numbers are not
// compared.
//
// Timing is not gated. An earlier cached/optimized ratio bound read every
// speed-up of the uncached DP (the denominator) as a cached-path
// regression, and the optimized time alone varies twofold between identical
// runs on a shared CI machine, so the ratio measured noise rather than the
// cached path.
//
// A nil error means the gate passes. All violations are collected before
// returning, so one CI run reports every regressed cell at once.
func GateDP(fresh DPBenchReport, artifactPath string) error {
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

	var violations []string
	for _, c := range fresh.Cells {
		if c.CachedAllocsPerOp != 0 {
			violations = append(violations, fmt.Sprintf(
				"n=%d %s/%s: cached path allocates %.1f objects/op (%.1f B/op), want 0",
				c.N, c.Model, c.Mode, c.CachedAllocsPerOp, c.CachedBytesPerOp))
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
