package perf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/qtext"
	"condsel/internal/robust"
	"condsel/internal/serve"
)

// The traced run measures each layer from outside the program: a handler
// that mirrors serve's /estimate, an estimator plugged into the
// serve.Config.Estimator seam, and a cache wrapper in the core.Estimator
// Cache seam. Nothing inside the program records a span.

// traceHeader carries the client's root span ID to the server, so client
// and server spans of one request share a trace.
const traceHeader = "X-Sitperf-Trace"

type spanKey struct{}

// spanRef names the trace and parent span a callee's spans hang from.
type spanRef struct{ trace, parent uint64 }

// tracedHandler mirrors serve's /estimate handler (deadline, query text,
// qtext.Parse, Server.EstimateQuery, JSON encode) with a span around each
// step. Drain handling is left out: the benchmark never drains mid-run.
type tracedHandler struct {
	srv         *serve.Server
	cat         *engine.Catalog
	rec         *Recorder
	defDeadline time.Duration
	maxDeadline time.Duration
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	id := h.rec.NewID()

	deadline, text, err := h.decode(r)
	t1 := time.Now()
	h.rec.Add(trace, h.rec.NewID(), id, "serve.decode", t0, t1)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, serve.EstimateResult{Error: err.Error()})
		return
	}
	q, err := qtext.Parse(h.cat, text)
	t2 := time.Now()
	h.rec.Add(trace, h.rec.NewID(), id, "qtext.parse", t1, t2)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, serve.EstimateResult{Error: err.Error()})
		return
	}

	estID := h.rec.NewID()
	ctx := context.WithValue(r.Context(), spanKey{}, spanRef{trace, estID})
	res := h.srv.EstimateQuery(ctx, q, deadline, "estimate")
	t3 := time.Now()
	h.rec.Add(trace, estID, id, "serve.estimate", t2, t3)
	wait := time.Duration(res.QueueWaitMs * float64(time.Millisecond))
	h.rec.Add(trace, h.rec.NewID(), estID, "serve.queue_wait", t2, t2.Add(wait))

	writeJSON(w, http.StatusOK, res)
	t4 := time.Now()
	h.rec.Add(trace, h.rec.NewID(), id, "serve.encode", t3, t4)
	h.rec.Add(trace, id, trace, "serve.handler", t0, t4)
}

// decode mirrors serve's deadline and query-text extraction.
func (h *tracedHandler) decode(r *http.Request) (time.Duration, string, error) {
	deadline := h.defDeadline
	if raw := r.Header.Get(serve.DeadlineHeader); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms != ms || ms <= 0 {
			return 0, "", fmt.Errorf("invalid deadline %q: want a positive millisecond count", raw)
		}
		deadline = time.Duration(ms * float64(time.Millisecond))
		if deadline <= 0 || deadline > h.maxDeadline {
			deadline = h.maxDeadline
		}
	}
	if q := r.URL.Query().Get("q"); q != "" {
		return deadline, q, nil
	}
	if r.Body == nil {
		return 0, "", errors.New("missing query: pass ?q= or a request body")
	}
	b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return 0, "", fmt.Errorf("reading body: %w", err)
	}
	text := strings.TrimSpace(string(b))
	if text == "" {
		return 0, "", errors.New("missing query: pass ?q= or a request body")
	}
	return deadline, text, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // a failed write surfaces as a transport error on the client
}

// layerCounts accumulates the traced run's per-request counters that are
// not spans.
type layerCounts struct {
	cacheNanos atomic.Int64 // time inside selcache Get and Put calls
	matchCalls atomic.Int64 // sit.Pool view-matching calls
}

// timingCache sits in the core.Estimator Cache seam for one request and
// sums the time its Get and Put calls take. A span per call would cost
// more than the call.
type timingCache struct {
	inner core.SelCache
	nanos int64
}

func (c *timingCache) Get(k core.CacheKey) (core.CacheEntry, bool) {
	t := time.Now()
	v, ok := c.inner.Get(k)
	c.nanos += time.Since(t).Nanoseconds()
	return v, ok
}

func (c *timingCache) Put(k core.CacheKey, v core.CacheEntry) {
	t := time.Now()
	c.inner.Put(k, v)
	c.nanos += time.Since(t).Nanoseconds()
}

// tracedLadder is the robust ladder as serve.LadderSource runs it, with tier
// 1 unrolled so the DP is a span of its own: core.dp, with core.hist
// (Run.HistNanos) and core.selcache (the timing cache's total) as
// children. Lower tiers are delegated to robust unchanged, as one
// robust.fallback span. Answers are bit-identical to the plain ladder's.
type tracedLadder struct {
	source func() *core.Estimator
	rec    *Recorder
	counts *layerCounts
}

func (t *tracedLadder) Estimate(ctx context.Context, q *engine.Query, cfg robust.Config) (float64, robust.Provenance) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	start := time.Now()
	id := t.rec.NewID()

	base := t.source()
	est := *base // a per-request copy, so the cache seam can count this request alone
	var cc *timingCache
	if base.Cache != nil {
		cc = &timingCache{inner: base.Cache}
		est.Cache = cc
	}
	pool := est.Pool
	matchBefore := pool.MatchCalls()
	defer func() {
		t.counts.matchCalls.Add(int64(pool.MatchCalls() - matchBefore))
		if cc != nil {
			t.counts.cacheNanos.Add(cc.nanos)
		}
		t.rec.Add(ref.trace, id, ref.parent, "robust.ladder", start, time.Now())
	}()

	gen := pool.Generation()
	if cfg.MaxTier <= robust.TierFullDP {
		dpStart := time.Now()
		r := est.NewBudgetedRun(ctx, q, nodeBudget(cfg))
		res, reason := r.SelectivityGuarded(q.All())
		var sel float64
		if reason == "" {
			sel = res.Sel
		}
		hist := r.HistNanos
		r.Release()
		dpEnd := time.Now()
		t.recordDP(ref.trace, id, dpStart, dpEnd, hist, cc)
		if reason == "" {
			return cardinality(q, sel, robust.Provenance{Tier: robust.TierFullDP, Generation: gen})
		}
		cfg = cfg.Cap(robust.TierBudgetedDP, "full-dp: "+reason)
	}
	fbStart := time.Now()
	card, prov := robust.New(&est, cfg).Cardinality(ctx, q)
	t.rec.AddSpan(Span{Trace: ref.trace, ID: t.rec.NewID(), Parent: id, Name: "robust.fallback",
		Start: fbStart.UnixNano(), End: time.Now().UnixNano(), Tier: prov.Tier.String()})
	return card, prov
}

// recordDP records the tier-1 span and its two summed children. The
// children are sums, not intervals, so they are laid end to end from the
// span's start; only their total matters for the DP's self time.
func (t *tracedLadder) recordDP(trace, parent uint64, start, end time.Time, histNanos int64, cc *timingCache) {
	id := t.rec.NewID()
	s := start.UnixNano()
	t.rec.AddSpan(Span{Trace: trace, ID: id, Parent: parent, Name: "core.dp", Start: s, End: end.UnixNano()})
	t.rec.AddSpan(Span{Trace: trace, ID: t.rec.NewID(), Parent: id, Name: "core.hist", Start: s, End: s + histNanos})
	if cc != nil {
		s += histNanos
		t.rec.AddSpan(Span{Trace: trace, ID: t.rec.NewID(), Parent: id, Name: "core.selcache", Start: s, End: s + cc.nanos})
	}
}

// nodeBudget mirrors robust.Config's node-budget rule: 0 selects the
// default, negative is unlimited (core's 0).
func nodeBudget(cfg robust.Config) int {
	switch {
	case cfg.NodeBudget == 0:
		return robust.DefaultNodeBudget
	case cfg.NodeBudget < 0:
		return 0
	}
	return cfg.NodeBudget
}

// cardinality mirrors robust.Estimator.Cardinality's scaling and guard.
func cardinality(q *engine.Query, sel float64, prov robust.Provenance) (float64, robust.Provenance) {
	card := sel * q.Cat.CrossSize(engine.PredsTables(q.Cat, q.Preds, q.All()))
	if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
		prov.FallbackReason += "; cardinality clamped"
		return 0, prov
	}
	return card, prov
}
