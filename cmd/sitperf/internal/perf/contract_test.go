package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
const benchmarkFile = "../../../../BENCHMARK.json"

type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkSpec
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	return b
}

// BENCHMARK.json and the command define the same workloads and metrics,
// and every per-layer metric says which end-to-end metric it moves where.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	b := readSpec(t)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: file has %q (%q), command %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) || len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("file has %d+%d metrics, command %d+%d", len(b.EndToEnd), len(b.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range EndToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: file has %+v, command %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range PerLayer {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: file has %+v, command %+v", i, got, m)
		}
	}

	names := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, name)
		}
		if names[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		names[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: bad unit %q", kind, name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: better is %q", kind, name, better)
		}
	}
	workloads, e2e := map[string]bool{}, map[string]bool{}
	for _, w := range Workloads {
		check("workload", w.Name, "", "")
		workloads[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range EndToEnd {
		check("end-to-end metric", m.Name, m.Unit, m.Better)
		e2e[m.Name] = true
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range PerLayer {
		check("per-layer metric", m.Name, m.Unit, m.Better)
		if len(m.Moves) == 0 {
			t.Errorf("%s names no end-to-end metric it moves", m.Name)
		}
		for _, mv := range m.Moves {
			if !e2e[mv.Metric] || !workloads[mv.Workload] {
				t.Errorf("%s moves %s on %s: no such end-to-end metric or workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}

	if len(b.Paths) == 0 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	for _, a := range b.Command {
		if strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("command argument %q leaves the checkout", a)
		}
	}
}

// syntheticWindow is a window with enough of every sample kind that no
// percentile is mis-sized.
func syntheticWindow(sweep bool) (*Window, []Span) {
	start := time.Unix(1_700_000_000, 0)
	rec := NewRecorder(0)
	var spans []Span
	sample := func(seq int) Sample {
		due := start.Add(time.Duration(seq) * time.Millisecond)
		s := Sample{
			Job:  Job{Seq: seq, Query: seq % 50, Due: due, Trace: rec.NewID()},
			Late: 100 * time.Microsecond, Sent: due.Add(time.Duration(seq%7) * time.Microsecond),
			Done: due.Add(time.Duration(1+seq%13) * time.Millisecond),
			Resp: Response{Cardinality: float64(seq % 50), Tier: "full-dp", Generation: 1, QueueWaitMs: float64(seq%5) / 10},
		}
		h := rec.NewID()
		spans = append(spans,
			Span{Trace: s.Trace, ID: h, Parent: s.Trace, Name: "serve.handler", Start: s.Sent.UnixNano(), End: s.Done.UnixNano() - 1000},
			Span{Trace: s.Trace, ID: rec.NewID(), Parent: h, Name: "qtext.parse", Start: s.Sent.UnixNano(), End: s.Sent.UnixNano() + 5000})
		return s
	}
	w := &Window{Elapsed: 20 * time.Second, Server: ServerWindow{HeapMB: 9, TotalCPU: 40, GCCPU: 2}}
	if !sweep {
		for i := 0; i < 2000; i++ {
			w.Samples = append(w.Samples, sample(i))
		}
		w.Observations = []Observation{{Observe: time.Millisecond, Settle: 2 * time.Millisecond}}
		return w, append(clientSpans(rec, w.Samples), spans...)
	}
	seq := 0
	for _, rate := range sweepRates {
		st := Step{Rate: rate}
		for i := 0; i < 1200; i++ {
			st.Samples = append(st.Samples, sample(seq))
			seq++
		}
		w.Steps = append(w.Steps, st)
		w.Samples = append(w.Samples, st.Samples...)
	}
	w.Latency = w.Steps[0].Samples
	w.Answers = append(append([]Sample(nil), w.Steps[0].Samples...), w.Steps[1].Samples...)
	return w, append(clientSpans(rec, w.Samples), spans...)
}

func corpusOf(n int) Corpus {
	c := make(Corpus, n)
	for i := range c {
		c[i] = Entry{Joins: 3, Truth: float64(i), Text: "q" + strconv.Itoa(i)}
	}
	return c
}

// A pass computes every metric in the spec but the two a workload run adds
// (setup_s from its set-ups, trace.overhead_pct from both passes), and no
// other.
func TestPassComputesEveryNamedMetric(t *testing.T) {
	var want []string
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if m.Name != "setup_s" && m.Name != "trace.overhead_pct" {
			want = append(want, m.Name)
		}
	}
	sort.Strings(want)
	for _, sweep := range []bool{false, true} {
		w, spans := syntheticWindow(sweep)
		res := &PassResult{Metrics: map[string]float64{}}
		endToEnd(res, w, corpusOf(50))
		layerMetrics(res, w, spans)
		if len(res.Problems) > 0 {
			t.Errorf("sweep=%v: problems %v", sweep, res.Problems)
		}
		var got []string
		for k := range res.Metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("sweep=%v: metrics\n%v\nwant\n%v", sweep, got, want)
		}
		if err := finite(res.Metrics); err != nil {
			t.Errorf("sweep=%v: %v", sweep, err)
		}
	}
}

// The command prints a line per metric of every workload, and as its last
// line one JSON object holding exactly the end-to-end metrics, or with
// tracing the per-layer ones, each with its unit.
func TestPrintEmitsExactlyTheNamedMetrics(t *testing.T) {
	full := func(set []Metric) map[string]float64 {
		m := map[string]float64{}
		for i, x := range set {
			m[x.Name] = float64(i) + 0.5
		}
		return m
	}
	for _, traced := range []bool{false, true} {
		rep := Report{}
		for _, w := range Workloads {
			wr := WorkloadReport{Name: w.Name, EndToEnd: full(EndToEnd), Attempted: 10}
			if traced {
				wr.PerLayer = full(PerLayer)
			}
			rep.Workloads = append(rep.Workloads, wr)
		}
		var out bytes.Buffer
		rep.Print(&out, false, traced)

		units := map[string]string{}
		for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
			units[m.Name] = m.Unit
		}
		sc := bufio.NewScanner(&out)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		seen := map[string]bool{}
		for _, l := range lines[:len(lines)-1] {
			f := strings.Fields(l)
			if len(f) != 4 {
				t.Fatalf("line %q is not `workload metric value unit`", l)
			}
			if _, ok := WorkloadByName(f[0]); !ok || units[f[1]] != f[3] {
				t.Errorf("line %q names an unknown workload or metric, or the wrong unit", l)
			}
			seen[f[0]+" "+f[1]] = true
		}
		set := EndToEnd
		if traced {
			set = PerLayer
		}
		for _, w := range Workloads {
			for _, m := range set {
				if !seen[w.Name+" "+m.Name] {
					t.Errorf("traced=%v: no line for %s %s", traced, w.Name, m.Name)
				}
			}
		}

		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("result keys %v", keys)
		}
		var metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(Workloads)*len(set) {
			t.Errorf("traced=%v: %d metrics in the result, want %d", traced, len(metrics), len(Workloads)*len(set))
		}
		for _, w := range Workloads {
			for _, m := range set {
				if got, ok := metrics[w.Name+"."+m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("traced=%v: result lacks %s.%s with unit %s", traced, w.Name, m.Name, m.Unit)
				}
			}
		}
	}
}
