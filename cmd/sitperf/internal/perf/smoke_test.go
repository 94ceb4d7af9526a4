package perf

import (
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for sitperf as the server process
// the smoke test starts: `<test binary> -serve ...` serves instead of
// testing.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for about a second, traced and untraced,
// against real server processes. Percentiles are mis-sized at that length;
// everything else must hold: no failed request, every check passed, every
// metric finite, traced answers equal to untraced ones.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	db := Database()
	corpus, err := GenerateCorpus(db, 1, warmQueries+60, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	hot, err := GenerateCorpus(db, hotSeed, hotQueries, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(db)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Exe: exe, Seed: 1, Duration: time.Second, Corpus: corpus, Hot: hot, Ref: ref, Out: t.TempDir(), Stderr: io.Discard}
	for _, w := range Workloads {
		wr, err := RunWorkload(env, w, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w.Name, wr.Failed, wr.Attempted)
		}
		for _, p := range wr.Problems {
			if !strings.Contains(p, "mis-sized") {
				t.Errorf("%s: %s", w.Name, p)
			}
		}
		for _, vals := range []map[string]float64{wr.EndToEnd, wr.PerLayer} {
			if err := finite(vals); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
		for _, name := range []string{"setup_s", "throughput_qps", "full_dp_share", "heap_mb"} {
			if wr.EndToEnd[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, wr.EndToEnd[name])
			}
		}
		if _, err := os.Stat(env.Out + "/spans-" + w.Name + ".jsonl"); err != nil {
			t.Errorf("%s: spans not written: %v", w.Name, err)
		}
	}
}
