package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateArtifact writes a minimal dp artifact and returns its path.
func gateArtifact(t *testing.T, cells []DPBenchCell) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_dp.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := WriteDPJSON(f, DPBenchReport{Seed: 1, Cells: cells}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateDP(t *testing.T) {
	t.Parallel()
	base := []DPBenchCell{
		{N: 8, Model: "Diff", Mode: "exhaustive",
			OptimizedNsPerOp: 2_000_000, CachedNsPerOp: 2_000},
		{N: 8, Model: "nInd", Mode: "singleton",
			OptimizedNsPerOp: 1_000_000, CachedNsPerOp: 1_500},
	}
	path := gateArtifact(t, base)

	t.Run("identical report passes", func(t *testing.T) {
		if err := GateDP(DPBenchReport{Cells: base}, path); err != nil {
			t.Fatalf("gate failed on the artifact's own cells: %v", err)
		}
	})

	t.Run("nonzero allocs fail absolutely", func(t *testing.T) {
		fresh := append([]DPBenchCell(nil), base...)
		fresh[0].CachedAllocsPerOp = 1
		fresh[0].CachedBytesPerOp = 48
		err := GateDP(DPBenchReport{Cells: fresh}, path)
		if err == nil || !strings.Contains(err.Error(), "allocates") {
			t.Fatalf("want allocation violation, got %v", err)
		}
	})

	t.Run("unmatched cells get the allocation check", func(t *testing.T) {
		fresh := []DPBenchCell{{N: 12, Model: "Diff", Mode: "exhaustive",
			OptimizedNsPerOp: 1, CachedNsPerOp: 1, CachedAllocsPerOp: 3}}
		err := GateDP(DPBenchReport{Cells: fresh}, path)
		if err == nil || !strings.Contains(err.Error(), "n=12") {
			t.Fatalf("want allocation violation for the unmatched cell, got %v", err)
		}
	})

	t.Run("timing is not gated", func(t *testing.T) {
		// A 4× faster uncached DP and a 2× slower cached read: the old
		// cached/optimized ratio bound failed this shape.
		fresh := append([]DPBenchCell(nil), base...)
		for i := range fresh {
			fresh[i].OptimizedNsPerOp /= 4
			fresh[i].CachedNsPerOp *= 2
		}
		if err := GateDP(DPBenchReport{Cells: fresh}, path); err != nil {
			t.Fatalf("timing moved the gate: %v", err)
		}
	})

	t.Run("wrong figure rejected", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "BENCH_other.json")
		f, err := os.Create(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(f, "est", 1, map[string]int{"x": 1}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := GateDP(DPBenchReport{}, bad); err == nil {
			t.Fatal("gate accepted a non-dp artifact")
		}
	})
}

// TestGateDPCommittedArtifact keeps the committed artifact well-formed: it
// must parse, carry the dp figure, and every cell must satisfy the gate's
// allocation contract against itself.
func TestGateDPCommittedArtifact(t *testing.T) {
	t.Parallel()
	f, err := os.Open("../../BENCH_dp.json")
	if err != nil {
		t.Skipf("committed artifact not present: %v", err)
	}
	defer f.Close()
	env, err := ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if env.Figure != "dp" {
		t.Fatalf("figure %q, want dp", env.Figure)
	}
	var r DPBenchReport
	if err := json.Unmarshal(env.Payload, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) == 0 {
		t.Fatal("artifact has no cells")
	}
	if err := GateDP(r, "../../BENCH_dp.json"); err != nil {
		t.Fatalf("committed artifact does not pass its own gate: %v", err)
	}
}
