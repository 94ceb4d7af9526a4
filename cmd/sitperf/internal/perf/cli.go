package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

// hotSeed generates the hot set of repeat and drift. It is fixed rather
// than taken from -seed: Zipf-weighted reads put half their weight on the
// top four queries, so a hot set drawn per seed would make the q-error of
// those workloads depend on which four queries happened to be hot.
const hotSeed = 0

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	cache    string
	serve    bool
}

// traceFlag takes 0 or 1 (or true/false) as a separate argument, so both
// `-trace 1` and `--trace 0` parse.
type traceFlag struct{ on *bool }

func (f traceFlag) String() string {
	if f.on != nil && *f.on {
		return "1"
	}
	return "0"
}

func (f traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("want 0 or 1")
	}
	*f.on = v
	return nil
}

// Main runs the command with the given arguments and returns its exit code.
// Results go to stdout: one `workload metric value unit` line per metric,
// then one JSON object as the last line. Diagnostics go to stderr.
func Main(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("sitperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	fs.Int64Var(&o.seed, "seed", 42, "seed of the generated inputs: corpus, Zipf draws and so the feedback")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload pass")
	fs.Var(traceFlag{&o.trace}, "trace", "1: also run each workload traced and report the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory traced runs write their spans to (empty: none)")
	fs.StringVar(&o.cache, "cache", "", "directory caching generated corpora (empty: none)")
	fs.BoolVar(&o.serve, "serve", false, "run a server process for the benchmark (used by sitperf itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.serve {
		if err := ServeChild(o.trace, os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "sitperf server:", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "sitperf: -seconds must be at least 1")
		return 2
	}
	ws := Workloads
	if o.workload != "" {
		w, ok := WorkloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "sitperf: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []Workload{w}
	}
	env, err := newEnv(o, ws, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sitperf:", err)
		return 1
	}
	var rep Report
	for _, w := range ws {
		wr, err := RunWorkload(env, w, o.trace)
		if err != nil {
			fmt.Fprintf(stderr, "sitperf: %s: %v\n", w.Name, err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, *wr)
	}
	rep.Print(stdout, o.workload != "", o.trace)
	if !rep.Correct() {
		for _, wr := range rep.Workloads {
			for _, p := range wr.Problems {
				fmt.Fprintf(stderr, "sitperf: FAIL: %s: %s\n", wr.Name, p)
			}
		}
		return 1
	}
	return 0
}

// newEnv prepares the inputs the workloads share. The seed's corpus takes
// seconds to generate, so it is made only when a workload uses it.
func newEnv(o options, ws []Workload, stderr io.Writer) (*Env, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "sitperf: GOMAXPROCS=%d nproc=%d seed=%d seconds=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), o.seed, o.seconds)
	env := &Env{Exe: exe, Seed: o.seed, Duration: time.Duration(o.seconds) * time.Second, Out: o.out, Stderr: stderr}
	db := Database()
	for _, w := range ws {
		if w.hot || env.Corpus != nil {
			continue
		}
		start := time.Now()
		if env.Corpus, err = LoadOrGenerateCorpus(o.cache, db, o.seed, corpusSize, runtime.NumCPU()); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		fmt.Fprintf(stderr, "sitperf: corpus of %d queries ready in %.1fs\n", len(env.Corpus), time.Since(start).Seconds())
	}
	if env.Hot, err = LoadOrGenerateCorpus(o.cache, db, hotSeed, hotQueries, runtime.NumCPU()); err != nil {
		return nil, fmt.Errorf("hot set: %w", err)
	}
	if env.Ref, err = NewReference(db); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return env, nil
}

// WorkloadReport is one workload's outcome.
type WorkloadReport struct {
	Name              string
	EndToEnd          map[string]float64
	PerLayer          map[string]float64 // traced runs only
	Attempted, Failed int
	Problems          []string
}

func (wr *WorkloadReport) add(res *PassResult, mode string) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	for _, p := range res.Problems {
		wr.Problems = append(wr.Problems, mode+": "+p)
	}
	if err := finite(res.Metrics); err != nil {
		wr.Problems = append(wr.Problems, mode+": "+err.Error())
	}
}

// RunWorkload runs one workload: setupRuns server processes of which the
// last serves an untraced pass, then, with trace, a traced pass on a server
// of its own.
func RunWorkload(env *Env, w Workload, trace bool) (*WorkloadReport, error) {
	wr := &WorkloadReport{Name: w.Name, EndToEnd: map[string]float64{}}
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupRuns; i++ {
		s, setup, err := startServer(env.Exe, false, env.Duration, env.Stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if i == setupRuns-1 {
			srv = s
		} else if err := s.Stop(); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	plain, err := runServed(env, w, srv, false)
	if err != nil {
		return nil, err
	}
	wr.add(plain, "untraced")
	for _, m := range EndToEnd {
		if v, ok := plain.Metrics[m.Name]; ok {
			wr.EndToEnd[m.Name] = v
		}
	}
	wr.EndToEnd["setup_s"] = Median(setups)
	if !trace {
		return wr, nil
	}

	tsrv, _, err := startServer(env.Exe, true, env.Duration, env.Stderr)
	if err != nil {
		return nil, err
	}
	traced, err := runServed(env, w, tsrv, true)
	if err != nil {
		return nil, err
	}
	wr.add(traced, "traced")
	wr.PerLayer = map[string]float64{}
	for _, m := range PerLayer {
		if v, ok := traced.Metrics[m.Name]; ok {
			wr.PerLayer[m.Name] = v
		}
	}
	base, ok1 := plain.Metrics["latency_p50_ms"]
	with, ok2 := traced.Metrics["latency_p50_ms"]
	if ok1 && ok2 && base > 0 {
		wr.PerLayer["trace.overhead_pct"] = 100 * (with - base) / base
	}
	if w.stable {
		for _, p := range compareAnswers(plain.Answers, traced.Answers) {
			wr.Problems = append(wr.Problems, "traced: "+p)
		}
	}
	if env.Out != "" {
		if err := writeSpans(env.Out, w.Name, traced.Spans); err != nil {
			return nil, fmt.Errorf("spans: %w", err)
		}
	}
	return wr, nil
}

// runServed runs a pass on srv and stops srv.
func runServed(env *Env, w Workload, srv *serverProc, traced bool) (*PassResult, error) {
	res, err := runPass(env, w, srv, traced)
	if serr := srv.Stop(); serr != nil && err == nil {
		err = fmt.Errorf("server: %w", serr)
	}
	return res, err
}

// Report is the command's outcome.
type Report struct {
	Workloads []WorkloadReport
}

// Correct reports whether every request succeeded and every check held.
func (r *Report) Correct() bool {
	for _, wr := range r.Workloads {
		if wr.Failed > 0 || len(wr.Problems) > 0 {
			return false
		}
	}
	return len(r.Workloads) > 0
}

// Print writes the metric lines and the final JSON object. single means one
// workload was asked for: its metrics go under their plain names, else
// under workload.metric. traced selects the per-layer set for the JSON
// object, else the end-to-end set.
func (r *Report) Print(w io.Writer, single, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	attempted, failed := 0, 0
	for _, wr := range r.Workloads {
		attempted += wr.Attempted
		failed += wr.Failed
		emit := func(set []Metric, vals map[string]float64, inJSON bool) {
			for _, m := range set {
				v, ok := vals[m.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(w, "%s %s %.6g %s\n", wr.Name, m.Name, v, m.Unit)
				if !inJSON {
					continue
				}
				key := m.Name
				if !single {
					key = wr.Name + "." + m.Name
				}
				metrics[key] = value{v, m.Unit}
			}
		}
		emit(EndToEnd, wr.EndToEnd, !traced)
		emit(PerLayer, wr.PerLayer, traced)
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct(), attempted, failed, metrics})
	fmt.Fprintln(w, string(b))
}
