package perf

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Workload is one traffic mix.
type Workload struct {
	Name string
	Why  string // recorded in BENCHMARK.json and the README
	// hot selects the fixed hot set as the query source instead of the
	// seed's corpus of distinct queries.
	hot bool
	// stable means an answer depends only on the query, so the traced and
	// untraced passes must agree bit for bit.
	stable bool
	// traceEvery is the traced pass's sampling: one request in this many is
	// traced, so a fast workload's spans stay a few thousand requests.
	traceEvery int
	run        func(p *Pass) (*Window, error)
}

// Workloads lists the benchmark's traffic mixes.
var Workloads = []Workload{
	{Name: "fresh", Why: "distinct paper-style queries (J 3..7, 3 filters), closed loop of 2: full DP and histogram joins on every request",
		stable: true, traceEvery: 1, run: runFresh},
	{Name: "repeat", Why: "Zipf(1.1) over 64 hot queries, closed loop of 2: HTTP, parse, encode and selcache lookups dominate, the DP is bypassed",
		hot: true, stable: true, traceEvery: 32, run: runRepeat},
	{Name: "drift", Why: "repeat's reads plus exact-cardinality feedback on every 200th read: drift detection, rebuilds and hot-swaps beside the reads",
		hot: true, traceEvery: 8, run: runDrift},
	{Name: "open-sweep", Why: "open loop at 100, 200 and 400 req/s over 2 connections with per-request budgets: queueing, admission and tier choice",
		traceEvery: 1, run: runOpenSweep},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

const (
	// corpusSize is the warm-up plus 4,000 distinct measured queries: at
	// about 230 q/s a 20 s fresh window cycles past its start only after
	// every sub-result it cached has long been evicted.
	corpusSize  = warmQueries + 4000
	warmQueries = 200
	hotQueries  = 64
	zipfS       = 1.1
	clients     = 2
	feedbackPer = 200 // drift: one feedback write per this many reads
	// feedbackSeed draws drift's feedback reads, the same in every run.
	feedbackSeed = 1
	maxLateMs    = 2 // dispatcher lateness gate (median) at the first sweep step
)

// sweepRates are the open-sweep steps in requests per second. Each step
// sends the same number of requests, so every step's p99 rests on the same
// sample count.
var sweepRates = []float64{100, 200, 400}

// sweepLimit is the p99 from due a step must meet to count toward
// max_rate: past 50 ms of waiting a 250 ms request leaves the full-DP band
// of robust.BudgetForDeadline (≥ 200 ms).
const sweepLimit = 50 * time.Millisecond

// Pass is one workload run against one server process.
type Pass struct {
	Srv      *serverProc
	Client   *Client
	Queries  Corpus // what the workload's query indices refer to
	Seed     int64
	Duration time.Duration // the measured window

	rec        *Recorder // client-side spans; nil when untraced
	traceEvery int
}

// ids hands out root span IDs for the measured requests of a traced pass:
// one request in traceEvery gets one, the rest get 0 and are not traced.
// Callers serialize calls.
func (p *Pass) ids() func() uint64 {
	if p.rec == nil {
		return nil
	}
	n := 0
	return func() uint64 {
		n++
		if (n-1)%p.traceEvery != 0 {
			return 0
		}
		return p.rec.NewID()
	}
}

// Window is what a workload measured: the requests sent after warm-up and
// what the server saw meanwhile.
type Window struct {
	Samples []Sample
	// Latency and Answers select the samples the end-to-end latency, and
	// the tier share and q-error, are taken over (nil: all of Samples).
	Latency, Answers []Sample
	Elapsed          time.Duration
	Server           ServerWindow

	Observations []Observation // drift: one per feedback write
	Steps        []Step        // open-sweep: one per rate
}

func (w *Window) latencySamples() []Sample {
	if w.Latency != nil {
		return w.Latency
	}
	return w.Samples
}

func (w *Window) answerSamples() []Sample {
	if w.Answers != nil {
		return w.Answers
	}
	return w.Samples
}

// Step is one open-sweep rate's requests.
type Step struct {
	Rate    float64
	Samples []Sample
}

func (p *Pass) begin() (*Window, time.Time, error) {
	if err := p.Srv.begin(); err != nil {
		return nil, time.Time{}, fmt.Errorf("beginning the window: %w", err)
	}
	return &Window{}, time.Now(), nil
}

func (p *Pass) end(w *Window, start time.Time) error {
	w.Elapsed = time.Since(start)
	sw, err := p.Srv.end()
	if err != nil {
		return fmt.Errorf("ending the window: %w", err)
	}
	w.Server = sw
	return nil
}

// warmup runs the closed loop over next, untimed and untraced.
func (p *Pass) warmup(until time.Time, next func() (int, bool)) {
	ClosedLoop(clients, until, next, p.Client.Send, nil, nil)
}

// sequential returns a next function walking indices lo..hi-1 once.
func sequential(lo, hi int) func() (int, bool) {
	i := lo
	return func() (int, bool) {
		if i >= hi {
			return 0, false
		}
		i++
		return i - 1, true
	}
}

// cycling returns a next function walking lo..hi-1 round and round.
func cycling(lo, hi int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		q := lo + i%(hi-lo)
		i++
		return q, true
	}
}

func runFresh(p *Pass) (*Window, error) {
	p.warmup(time.Now().Add(time.Hour), sequential(0, warmQueries))
	w, start, err := p.begin()
	if err != nil {
		return nil, err
	}
	w.Samples = ClosedLoop(clients, start.Add(p.Duration), cycling(warmQueries, len(p.Queries)), p.Client.Send, p.ids(), nil)
	return w, p.end(w, start)
}

// zipfNext draws hot-query indices from a seeded Zipf distribution. The
// closed loop calls it under its own lock, so the draw sequence depends on
// the seed alone.
func zipfNext(seed int64, n int) func() (int, bool) {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(n-1))
	return func() (int, bool) { return int(z.Uint64()), true }
}

// hotWarmup sends every hot query once, then half a second of Zipf draws,
// so the selcache holds the hot set before timing.
func (p *Pass) hotWarmup() {
	p.warmup(time.Now().Add(time.Hour), sequential(0, len(p.Queries)))
	p.warmup(time.Now().Add(time.Second/2), zipfNext(p.Seed+1, len(p.Queries)))
}

func runRepeat(p *Pass) (*Window, error) {
	p.hotWarmup()
	w, start, err := p.begin()
	if err != nil {
		return nil, err
	}
	w.Samples = ClosedLoop(clients, start.Add(p.Duration), zipfNext(p.Seed, len(p.Queries)), p.Client.Send, p.ids(), nil)
	return w, p.end(w, start)
}

func runDrift(p *Pass) (*Window, error) {
	p.hotWarmup()
	w, start, err := p.begin()
	if err != nil {
		return nil, err
	}
	// Every feedbackPer-th read by issue order is a feedback read, and it
	// and its write run alone: they hold gate from before the read is sent
	// until the write has settled, while other reads share gate. Feedback
	// reads are Zipf draws of their own, from feedbackSeed rather than the
	// run's seed. So the observed queries, the generations they are
	// answered at and the rebuilds they cause are the same in every run;
	// taken from the seed's read stream, the rebuilds per observation
	// ranged threefold across seeds.
	var gate sync.RWMutex
	feedback := func(j Job) bool { return j.Seq%feedbackPer == feedbackPer-1 }
	reads, observed := zipfNext(p.Seed, len(p.Queries)), zipfNext(feedbackSeed, len(p.Queries))
	calls := 0 // ClosedLoop calls next once per Seq, in Seq order
	next := func() (int, bool) {
		if calls++; calls%feedbackPer == 0 {
			return observed()
		}
		return reads()
	}
	send := func(j Job, budget time.Duration) (Response, error) {
		if feedback(j) {
			gate.Lock()
		} else {
			gate.RLock()
		}
		return p.Client.Send(j, budget)
	}
	// observeErr and w.Observations are touched only while holding gate
	// exclusively.
	var observeErr error
	write := func(s Sample) {
		if !feedback(s.Job) {
			gate.RUnlock()
			return
		}
		defer gate.Unlock()
		if s.Err != nil || observeErr != nil {
			return
		}
		e := p.Queries[s.Query]
		o, err := p.Srv.observe(s.Resp.Generation, e.Text, s.Resp.Cardinality, e.Truth)
		if err != nil {
			observeErr = err
			return
		}
		w.Observations = append(w.Observations, o)
	}
	w.Samples = ClosedLoop(clients, start.Add(p.Duration), next, send, p.ids(), write)
	if observeErr != nil {
		return nil, fmt.Errorf("feedback: %w", observeErr)
	}
	return w, p.end(w, start)
}

func runOpenSweep(p *Pass) (*Window, error) {
	p.warmup(time.Now().Add(time.Hour), sequential(0, warmQueries))
	var perReq float64 // seconds one request of every step takes on schedule
	for _, r := range sweepRates {
		perReq += 1 / r
	}
	n := int(p.Duration.Seconds() / perReq)
	w, start, err := p.begin()
	if err != nil {
		return nil, err
	}
	ids := p.ids()
	next := warmQueries
	for _, rate := range sweepRates {
		first := next
		query := func(seq int) int {
			return warmQueries + (first-warmQueries+seq)%(len(p.Queries)-warmQueries)
		}
		ss := OpenLoop(time.Now(), rate, n, maxConns, defaultDeadline, query, p.Client.Send, ids)
		next += n
		w.Steps = append(w.Steps, Step{Rate: rate, Samples: ss})
		w.Samples = append(w.Samples, ss...)
	}
	// End-to-end latency comes from the first step. At 200 req/s one
	// admission slot is over three-quarters busy, so a few percent of host
	// speed moves the queue, and the latency from due, by tens of percent;
	// the later steps show in the sweep's per-layer metrics instead. Tier
	// share and q-error come from the first two steps, where every answer
	// still has the full DP's budget, so that q-error rests on twice the
	// queries.
	w.Latency = w.Steps[0].Samples
	w.Answers = append(append([]Sample(nil), w.Steps[0].Samples...), w.Steps[1].Samples...)
	return w, p.end(w, start)
}
