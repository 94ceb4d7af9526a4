package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestReportEnvelopeRoundTrip: a payload written through WriteReport must come
// back through ReadReport with the envelope metadata intact and the payload
// field-for-field identical.
func TestReportEnvelopeRoundTrip(t *testing.T) {
	t.Parallel()
	in := RobustBenchReport{
		Seed: 42, FactRows: 4000, Queries: 4, PoolJoins: 2,
		Cells: []RobustBenchCell{
			{N: 6, Joins: 3, Filters: 3, Overhead: Overhead{
				BareNsPerOp: 1000, ManagedNsPerOp: 1010, OverheadPct: 1.0,
				Pairs: 32, PairP25Pct: -0.5, PairP50Pct: 0.25, PairP75Pct: 1.5,
			}},
		},
		MaxOverheadPct: 1.0,
		Faulted: []RobustFaultCell{
			{Fault: "nan-selectivity", TierCounts: map[string]int{"gvm": 4}, Degraded: 4},
		},
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, "robust", in.Seed, in); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	env, err := ReadReport(&buf)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if env.Schema != SchemaVersion || env.Figure != "robust" || env.Seed != 42 {
		t.Fatalf("envelope metadata = %q/%q/%d", env.Schema, env.Figure, env.Seed)
	}
	var out RobustBenchReport
	if err := json.Unmarshal(env.Payload, &out); err != nil {
		t.Fatalf("unmarshal payload: %v", err)
	}
	if out.Seed != in.Seed || out.MaxOverheadPct != in.MaxOverheadPct ||
		len(out.Cells) != 1 || out.Cells[0] != in.Cells[0] ||
		len(out.Faulted) != 1 || out.Faulted[0].TierCounts["gvm"] != 4 {
		t.Fatalf("payload did not round-trip: %+v", out)
	}
}

// TestReportEnvelopeSchemaCheck: a wrong or missing schema tag is a decode
// error, not a silently accepted artifact.
func TestReportEnvelopeSchemaCheck(t *testing.T) {
	t.Parallel()
	r := strings.NewReader(`{"schema":"condsel-bench/v0","figure":"dp","seed":1,"payload":{}}`)
	if _, err := ReadReport(r); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("stale schema accepted: %v", err)
	}
	if _, err := ReadReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestReportRejectsNonFinite: NaN and ±Inf must be refused wherever they hide
// — a top-level field, a nested struct, a slice element, a map value — and
// the error must name the offending path.
func TestReportRejectsNonFinite(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		payload any
		path    string
	}{
		{"top-level NaN",
			LifecycleBenchReport{Seed: 1, RebuildsPerSecond: math.NaN()}, "RebuildsPerSecond"},
		{"nested +Inf",
			EstBenchReport{Seed: 1, Baseline: EstBenchResult{QueriesPerSec: math.Inf(1)}},
			"Baseline.QueriesPerSec"},
		{"slice element -Inf",
			DPBenchReport{Seed: 1, Cells: []DPBenchCell{{}, {Speedup: math.Inf(-1)}}},
			"Cells[1].Speedup"},
		{"map value NaN",
			map[string]float64{"p99_ms": math.NaN()}, "p99_ms"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			err := WriteReport(&buf, "test", 1, tc.payload)
			if err == nil {
				t.Fatal("non-finite payload accepted")
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Fatalf("error %q does not name path %q", err, tc.path)
			}
			if buf.Len() != 0 {
				t.Fatalf("rejected report still wrote %d bytes", buf.Len())
			}
		})
	}
}

// TestReportAcceptsFiniteFloats: the validator must not reject ordinary
// finite values (including zero and negatives).
func TestReportAcceptsFiniteFloats(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	payload := DPBenchReport{Seed: 9, Cells: []DPBenchCell{{Speedup: -0.5}, {Speedup: 0}}}
	if err := WriteReport(&buf, "dp", 9, payload); err != nil {
		t.Fatalf("finite payload rejected: %v", err)
	}
}
