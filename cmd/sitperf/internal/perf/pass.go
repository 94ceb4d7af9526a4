package perf

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/lifecycle"
	"condsel/internal/qtext"
	"condsel/internal/robust"
)

// setupRuns is how many server processes one workload starts untraced; the
// last serves the pass and setup_s is the median of their set-up times.
const setupRuns = 3

// refChecks is how many distinct full-DP answers of a pass are recomputed
// by the reference estimator.
const refChecks = 100

// Env is what every pass of one run shares.
type Env struct {
	Exe      string        // binary whose -serve mode runs a server process
	Seed     int64         // drives the corpus, the Zipf draws and so the feedback
	Duration time.Duration // measured window of each pass
	Corpus   Corpus        // the seed's distinct queries
	Hot      Corpus        // the fixed hot set of repeat and drift
	Ref      *Reference
	Out      string // directory traced passes write their spans to; "" for none
	Stderr   io.Writer
}

// Reference recomputes answers in the load generator's process with the
// deployment's estimator and no deadline: a full-dp response at the same
// pool generation must equal it bit for bit.
type Reference struct {
	cat        *engine.Catalog
	est        *core.Estimator
	Generation uint64
}

// NewReference builds the deployment's pool and estimator over db.
func NewReference(db *datagen.DB) (*Reference, error) {
	pool, err := BuildPool(db)
	if err != nil {
		return nil, err
	}
	mgr := lifecycle.New(db.Cat, pool, lifecycle.Config{Seed: dataSeed})
	return &Reference{cat: db.Cat, est: mgr.Estimator(), Generation: mgr.Generation()}, nil
}

// Cardinality is the full DP's answer to the query text.
func (r *Reference) Cardinality(text string) (float64, error) {
	q, err := qtext.Parse(r.cat, text)
	if err != nil {
		return 0, err
	}
	card, prov := robust.New(r.est, robust.Config{}).Cardinality(context.Background(), q)
	if prov.Tier != robust.TierFullDP {
		return 0, fmt.Errorf("reference fell back to %s: %s", prov.Tier, prov.FallbackReason)
	}
	return card, nil
}

// Answer is a query's first answer in a pass.
type Answer struct {
	Card float64
	Tier string
	Gen  uint64
}

// PassResult is one pass's outcome.
type PassResult struct {
	Attempted, Failed int
	Problems          []string // failed requests, correctness gates and mis-sized percentiles
	Metrics           map[string]float64
	Answers           map[int]Answer // by query index
	Spans             []Span         // traced only
}

func (res *PassResult) problem(format string, args ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// pct stores a guarded percentile, or notes the metric as mis-sized.
func (res *PassResult) pct(name string, xs []float64, p float64) {
	v, err := Percentile(xs, p)
	if err != nil {
		res.problem("mis-sized: %s: %v", name, err)
		return
	}
	res.Metrics[name] = v
}

// runPass runs the workload against the server and computes its metrics:
// every end-to-end metric but setup_s, and the per-layer metrics a pass of
// this kind can measure.
func runPass(env *Env, w Workload, srv *serverProc, traced bool) (*PassResult, error) {
	queries := env.Corpus
	if w.hot {
		queries = env.Hot
	}
	texts := make([]string, len(queries))
	for i, e := range queries {
		texts[i] = e.Text
	}
	client := NewClient(srv.URL, texts)
	defer client.Close()
	p := &Pass{Srv: srv, Client: client, Queries: queries, Seed: env.Seed, Duration: env.Duration, traceEvery: w.traceEvery}
	if traced {
		p.rec = NewRecorder(0)
	}
	win, err := w.run(p)
	if err != nil {
		return nil, err
	}
	res := &PassResult{Metrics: map[string]float64{}}
	endToEnd(res, win, queries)
	if traced {
		res.Spans = append(clientSpans(p.rec, win.Samples), win.Server.Spans...)
	}
	layerMetrics(res, win, res.Spans)
	if !traced {
		checkReference(res, env.Ref, srv.Generation, queries)
	}
	return res, nil
}

// endToEnd computes what a user of the service sees and checks every
// answer.
func endToEnd(res *PassResult, w *Window, queries Corpus) {
	res.Answers = make(map[int]Answer)
	completed := 0
	for _, s := range w.Samples {
		res.Attempted++
		if s.Err != nil {
			if res.Failed++; res.Failed <= 5 {
				res.problem("request %d (query %d): %v", s.Seq, s.Query, s.Err)
			}
			continue
		}
		completed++
		a := Answer{Card: s.Resp.Cardinality, Tier: s.Resp.Tier, Gen: s.Resp.Generation}
		prev, seen := res.Answers[s.Query]
		switch {
		case !seen:
			res.Answers[s.Query] = a
		case prev.Tier == "full-dp" && a.Tier == "full-dp" && prev.Gen == a.Gen && !sameCard(prev.Card, a.Card):
			res.problem("query %d: full-dp answers at generation %d differ within the pass (%v vs %v)", s.Query, a.Gen, prev.Card, a.Card)
		}
	}
	var lats, qerrs []float64
	for _, s := range w.latencySamples() {
		if s.Err == nil {
			lats = append(lats, ms(s.Latency()))
		}
	}
	full, answered := 0, 0
	for _, s := range w.answerSamples() {
		if s.Err != nil {
			continue
		}
		answered++
		qerrs = append(qerrs, QError(s.Resp.Cardinality, queries[s.Query].Truth))
		if s.Resp.Tier == "full-dp" {
			full++
		}
	}
	m := res.Metrics
	m["throughput_qps"] = float64(completed) / w.Elapsed.Seconds()
	res.pct("latency_p50_ms", lats, 0.50)
	res.pct("latency_p99_ms", lats, 0.99)
	m["full_dp_share"] = share(full, answered)
	res.pct("qerror_p50", qerrs, 0.50)
	res.pct("qerror_p90", qerrs, 0.90)
	m["heap_mb"] = w.Server.HeapMB
}

func sameCard(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkReference recomputes up to refChecks distinct full-dp answers given
// at the reference's pool generation, in query order.
func checkReference(res *PassResult, ref *Reference, serverGen uint64, queries Corpus) {
	if ref == nil {
		return
	}
	if serverGen != ref.Generation {
		res.problem("server pool generation %d differs from the reference's %d", serverGen, ref.Generation)
		return
	}
	idx := make([]int, 0, len(res.Answers))
	for q, a := range res.Answers {
		if a.Tier == "full-dp" && a.Gen == ref.Generation {
			idx = append(idx, q)
		}
	}
	sort.Ints(idx)
	if len(idx) == 0 {
		res.problem("no full-dp answer at the reference generation to check")
		return
	}
	for _, q := range idx[:min(len(idx), refChecks)] {
		want, err := ref.Cardinality(queries[q].Text)
		if err != nil {
			res.problem("reference for query %d: %v", q, err)
			continue
		}
		if got := res.Answers[q].Card; !sameCard(got, want) {
			res.problem("query %d: served full-dp cardinality %v, reference %v", q, got, want)
		}
	}
}

// compareAnswers requires the traced pass to answer every query both passes
// asked exactly as the untraced pass did: same cardinality bits, same tier.
func compareAnswers(plain, traced map[int]Answer) []string {
	var out []string
	common := 0
	for q, p := range plain {
		t, ok := traced[q]
		if !ok {
			continue
		}
		common++
		if !sameCard(p.Card, t.Card) || p.Tier != t.Tier {
			out = append(out, fmt.Sprintf("traced answer to query %d is %v/%s, untraced %v/%s", q, t.Card, t.Tier, p.Card, p.Tier))
		}
	}
	if common == 0 {
		out = append(out, "traced and untraced passes share no query to compare")
	}
	sort.Strings(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// clientSpans records each traced request's client-side spans: the root,
// from due to done, and its loadgen.backlog child. It returns them.
func clientSpans(rec *Recorder, samples []Sample) []Span {
	for _, s := range samples {
		if s.Trace == 0 {
			continue
		}
		rec.Add(s.Trace, s.Trace, 0, "loadgen.request", s.Due, s.Done)
		if s.Sent.After(s.Due) {
			rec.Add(s.Trace, rec.NewID(), s.Trace, "loadgen.backlog", s.Due, s.Sent)
		}
	}
	return rec.Take()
}

// layerMetrics computes the per-layer breakdown. Counters come from the
// program and the load generator and cover the whole window; durations
// need spans, so they are 0 without them. The latency breakdown (loadgen,
// http and serve timings) covers the samples the end-to-end latency is
// taken over, so it adds up to that latency.
func layerMetrics(res *PassResult, w *Window, spans []Span) {
	m := res.Metrics
	sw := w.Server
	n := max(len(w.Samples), 1)
	measured := w.latencySamples()

	// Load generator (open loop only).
	m["loadgen.dispatch_late_ms.p99"] = 0
	m["loadgen.backlog_ms.p99"] = 0
	if len(w.Steps) > 0 {
		// The generator's lateness is taken at the first step, where the
		// server leaves it the most room: late there, it cannot keep the
		// schedule of the steps after it. The gate is on the median, which
		// a starved generator moves and a host's scheduling hiccup, which
		// delays a few sends by milliseconds, does not.
		first := w.Steps[0]
		late := durations(first.Samples, func(s Sample) time.Duration { return s.Late })
		res.pct("loadgen.dispatch_late_ms.p99", late, 0.99)
		if p50 := Median(late); p50 > maxLateMs {
			res.problem("dispatcher lateness median %.3f ms at %.0f req/s exceeds %d ms", p50, first.Rate, maxLateMs)
		}
		res.pct("loadgen.backlog_ms.p99", durations(measured, Sample.Backlog), 0.99)
	}

	// Admission wait, from the answers the latency is taken over.
	waits := durations(measured, func(s Sample) time.Duration {
		return time.Duration(s.Resp.QueueWaitMs * float64(time.Millisecond))
	})
	m["serve.queue_wait_ms.mean"] = Mean(waits)
	res.pct("serve.queue_wait_ms.p99", waits, 0.99)

	// Shedding and ladder tiers, from every answer.
	tiers := map[string]int{}
	shed, answered := 0, 0
	for _, s := range w.Samples {
		if s.Err != nil {
			continue
		}
		answered++
		tiers[s.Resp.Tier]++
		if s.Resp.Shed {
			shed++
		}
	}
	m["serve.shed_share"] = share(shed, answered)
	for _, t := range []string{"full-dp", "budgeted-dp", "gvm", "no-sit"} {
		m["robust.tier_share."+t] = share(tiers[t], answered)
	}

	// Caches, matching, lifecycle and runtime, from the program's counters.
	m["core.histjoin_hit_ratio"] = share(int(sw.HistJoinHits), int(sw.HistJoinHits+sw.HistJoinMisses))
	m["selcache.hit_ratio"] = share(int(sw.SelHits), int(sw.SelHits+sw.SelMisses))
	m["selcache.evictions_per_kreq"] = 1000 * float64(sw.SelEvictions) / float64(n)
	m["selcache.us_per_req"] = float64(sw.CacheNanos) / 1e3 / float64(n)
	m["sit.match_calls_per_req"] = float64(sw.MatchCalls) / float64(n)
	var observe, settle []time.Duration
	for _, o := range w.Observations {
		observe = append(observe, o.Observe)
		settle = append(settle, o.Settle)
	}
	m["lifecycle.observe_us.mean"] = 1000 * meanMs(observe)
	m["lifecycle.settle_ms.mean"] = meanMs(settle)
	m["lifecycle.swaps_per_s"] = float64(sw.Swaps) / w.Elapsed.Seconds()
	m["lifecycle.rebuilds_per_observation"] = share(int(sw.Rebuilds), len(w.Observations))
	m["runtime.alloc_kb_per_req"] = float64(sw.AllocBytes) / 1024 / float64(n)
	m["runtime.gc_cpu_fraction"] = 0
	if sw.TotalCPU > 0 {
		m["runtime.gc_cpu_fraction"] = sw.GCCPU / sw.TotalCPU
	}

	// Open-sweep steps past the first; 0 on the closed loops.
	for _, name := range []string{"sweep.p99_ms_at_200", "sweep.p99_ms_at_400", "sweep.full_dp_share_at_400", "sweep.max_rate_qps"} {
		m[name] = 0
	}
	for i, st := range w.Steps {
		name := fmt.Sprintf("sweep.p99_ms_at_%.0f", st.Rate)
		p99, err := Percentile(durations(st.Samples, Sample.Latency), 0.99)
		if err != nil {
			res.problem("mis-sized: %s: %v", name, err)
			continue
		}
		if i > 0 {
			m[name] = p99
		}
		failed, full := 0, 0
		for _, s := range st.Samples {
			if s.Err != nil {
				failed++
			} else if s.Resp.Tier == "full-dp" {
				full++
			}
		}
		if st.Rate == 400 {
			m["sweep.full_dp_share_at_400"] = share(full, len(st.Samples))
		}
		if failed == 0 && p99 <= ms(sweepLimit) && st.Rate > m["sweep.max_rate_qps"] {
			m["sweep.max_rate_qps"] = st.Rate
		}
	}

	// Span-derived durations, over the traced requests among the measured.
	for _, name := range []string{"http.self_us.mean", "http.self_ms.p99", "serve.handler_ms.p99",
		"serve.decode_us.mean", "qtext.parse_us.mean", "serve.encode_us.mean", "robust.ladder_ms.mean",
		"core.search_ms.mean", "core.hist_ms.mean", "gvm.ms.mean"} {
		m[name] = 0
	}
	if spans == nil {
		return
	}
	traces := make(map[uint64]bool, len(measured))
	for _, s := range measured {
		if s.Trace != 0 {
			traces[s.Trace] = true
		}
	}
	var kept []Span
	for _, sp := range spans {
		if traces[sp.Trace] {
			kept = append(kept, sp)
		}
	}
	self := SelfByName(kept)
	durs := map[string][]float64{}
	var gvm []float64
	for _, sp := range kept {
		durs[sp.Name] = append(durs[sp.Name], ms(sp.Dur()))
		if sp.Name == "robust.fallback" && sp.Tier == "gvm" {
			gvm = append(gvm, ms(sp.Dur()))
		}
	}
	m["http.self_us.mean"] = 1000 * meanMs(self["loadgen.request"])
	res.pct("http.self_ms.p99", msOf(self["loadgen.request"]), 0.99)
	res.pct("serve.handler_ms.p99", durs["serve.handler"], 0.99)
	m["serve.decode_us.mean"] = 1000 * meanMs(self["serve.decode"])
	m["qtext.parse_us.mean"] = 1000 * meanMs(self["qtext.parse"])
	m["serve.encode_us.mean"] = 1000 * meanMs(self["serve.encode"])
	m["robust.ladder_ms.mean"] = Mean(durs["robust.ladder"])
	m["core.search_ms.mean"] = meanMs(self["core.dp"])
	m["core.hist_ms.mean"] = Mean(durs["core.hist"])
	m["gvm.ms.mean"] = Mean(gvm)
}

func durations(ss []Sample, f func(Sample) time.Duration) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.Err == nil {
			out = append(out, ms(f(s)))
		}
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func meanMs(ds []time.Duration) float64 { return Mean(msOf(ds)) }
