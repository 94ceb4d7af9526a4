// Package core implements the paper's primary contribution: the conditional
// selectivity framework (§2) and the getSelectivity dynamic-programming
// algorithm (§3) that finds the most accurate decomposition of a selectivity
// value for a given pool of SITs and a monotonic, algebraic error function.
//
// A selectivity value Sel_R(P) is repeatedly unfolded through atomic
// decompositions Sel(P) = Sel(P'|Q)·Sel(Q) (Property 1) and separable
// decompositions across table-disjoint components (Property 2, Lemma 2).
// Each conditional factor Sel(P'|Q) is approximated with the candidate SITs
// of §3.3; decompositions are ranked by an ErrorModel (§3.2/§3.5) and the
// best one is found by memoized dynamic programming (Figure 3, Theorem 1).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// Fallback constants used when the pool holds no statistics at all for a
// predicate's attribute(s). They mirror the magic selectivities of classic
// System R optimizers; the huge error makes any SIT-backed alternative win.
const (
	FallbackFilterSelectivity = 0.1
	FallbackJoinSelectivity   = 0.01
	FallbackError             = 1e9
)

// Estimator estimates selectivities and cardinalities of SPJ queries using
// a pool of SITs, an error model, and the getSelectivity algorithm. Create
// one Run per query; runs share nothing but the estimator's configuration.
//
// An Estimator is safe for concurrent use once configured: NewRun may be
// called from many goroutines, and the shared state reachable from a Run —
// the catalog, the pool (atomic match counter), the oracle evaluator
// (mutex-guarded memo) and the optional cache (sharded, read-locked) —
// is itself concurrency-safe. Mutating the configuration fields concurrently
// with estimation is not supported. A Run is single-goroutine state.
type Estimator struct {
	Cat   *engine.Catalog
	Pool  *sit.Pool
	Model ErrorModel

	// Oracle supplies exact conditional selectivities; it is required by
	// the Opt error model and unused otherwise.
	Oracle *engine.Evaluator

	// Cache, when non-nil, shares getSelectivity results across runs (and
	// across queries): on a memo miss a run first consults the cache under
	// the entry's canonical key — error-model name, pool generation, and
	// the packed structural predicate-set signature — and publishes every
	// freshly computed result back. Entries are position-independent (see
	// CacheEntry), so a hit returns bit-identical estimates to a cold
	// computation. The cache is safe for concurrent use; see
	// internal/selcache.
	Cache SelCache

	// NoFastPath disables the run-level hot-path machinery — the per-query
	// candidate matcher, the component index and the histogram-join cache
	// (DESIGN.md "Hot path") — and falls back to the straightforward scans.
	// Estimates are bit-identical either way (enforced by
	// TestCacheEquivalenceHotPath); the switch exists for benchmark
	// baselines and equivalence tests.
	NoFastPath bool

	// runPool recycles Run contexts across queries: NewRun draws from it
	// and Run.Release returns to it, so steady-state estimation reuses the
	// memo maps, signature tables and result arenas instead of
	// reallocating them per query. A pointer so that copies of a
	// configured Estimator (the equivalence tests copy one to flip
	// NoFastPath) share the pool; sharing is safe because pooled runs are
	// fully reset and rebound to their next estimator by NewRun.
	runPool *sync.Pool
}

// SelCache is the cross-query result cache consumed by Run. It is satisfied
// by *SelCacheStore (see NewSelCache); core depends only on this interface
// so the cache implementation stays free-standing.
type SelCache interface {
	Get(key CacheKey) (CacheEntry, bool)
	Put(key CacheKey, v CacheEntry)
}

// NewEstimator returns an estimator over the catalog, pool and error model.
func NewEstimator(cat *engine.Catalog, pool *sit.Pool, model ErrorModel) *Estimator {
	return &Estimator{
		Cat: cat, Pool: pool, Model: model,
		runPool: &sync.Pool{New: func() any { return new(Run) }},
	}
}

// Result is getSelectivity's answer for one predicate set, the pair that
// Figure 3 returns: the estimated selectivity and the aggregated error of
// the chosen decomposition. It is a plain value and borrows nothing from the
// run, so it stays valid after Release.
type Result struct {
	Sel float64
	Err float64
}

// decomp is the chosen decomposition behind a Result: its factors (most
// recently applied first) and its canonical chain key. It is what the memo
// and the cross-query cache hold, and it never leaves this package:
// decompositions decoded from a cache hit live in the run's arenas and die
// at Release.
//
// factors is read-only, and the cross-query cache relies on it: a published
// CacheEntry shares its decomposition's factor slice rather than copying
// it. That is safe under one invariant, which this package holds to. Only
// computed decompositions are published, and those are heap-allocated
// winners (buildWinner, mergeSeparable) that nothing mutates after they are
// built. Arena-backed decompositions are never published.
type decomp struct {
	Result
	factors []factor

	// key canonically identifies the chosen decomposition chain; equal-
	// error candidates tie-break on it. Keys are built from structural
	// predicate signatures (not positions), making the chosen decomposition
	// shareable across queries through the cross-query cache.
	key string
}

// factor is one approximated conditional factor Sel(P|Q) of a chosen
// decomposition, together with the SITs that approximate it (nil entries
// mark fallback guesses).
type factor struct {
	P, Q engine.PredSet
	Sel  float64
	Err  float64
	SITs []*sit.SIT
}

// format renders the factor in the paper's Sel(P|Q) notation.
func (f factor) format(q *engine.Query) string {
	var sb strings.Builder
	sb.WriteString("Sel(")
	sb.WriteString(engine.FormatPreds(q.Cat, q.Preds, f.P))
	if !f.Q.Empty() {
		sb.WriteString(" | ")
		sb.WriteString(engine.FormatPreds(q.Cat, q.Preds, f.Q))
	}
	fmt.Fprintf(&sb, ") = %.6g", f.Sel)
	names := make([]string, 0, len(f.SITs))
	for _, s := range f.SITs {
		if s == nil {
			names = append(names, "fallback")
		} else {
			names = append(names, s.Name(q.Cat))
		}
	}
	if len(names) > 0 {
		fmt.Fprintf(&sb, "  using %s", strings.Join(names, ", "))
	}
	return sb.String()
}

// Run is the per-query state of getSelectivity: the memoization table of
// Figure 3 plus the ground-truth cache used by the Opt model. As the paper
// notes, the memo satisfies all selectivity requests for sub-queries of the
// same query, which is how the algorithm integrates with an optimizer's
// search (§4).
//
// Runs are pooled: NewRun draws a reset context from the estimator's pool
// and Release returns it. On the cached path — memo or cross-query cache
// hit — a pooled run performs no allocation at all: cache keys are packed
// integer signatures (engine.PredSig), hits are decoded into per-run arenas,
// and all tables are reused across queries. The uncached search reuses its
// lookup state too: the memo is a flat table (engine.FlatTable), and the
// component index and candidate matcher are values the run owns and
// rebinds to each query, so a warm run allocates only its winners.
type Run struct {
	Est   *Estimator
	Query *engine.Query

	// HistNanos accumulates time spent manipulating histograms to produce
	// the chosen estimates (line 16 of Figure 3). The paper's Figure 8
	// separates this "histogram manipulation" component from the
	// "decomposition analysis" remainder of the run time.
	HistNanos int64

	memo        engine.FlatTable[*decomp] // keyed (0, set)
	truthMemo   map[truthKey]float64      // Opt ground truth, nil until used
	derivedMemo map[string]*sit.SIT       // Example 3 derivations, nil until used

	// budget, when non-nil, bounds the run's execution (deadline + node
	// cap); see NewBudgetedRun. Nil for plain runs — every check is then a
	// single nil test.
	budget *runBudget

	// Cross-query cache identity, pinned at NewRun: the error model's name
	// and the pool generation (see cache.go).
	modelName string
	gen       uint64

	// Per-position signature tables, rebuilt for every query over pooled
	// backing arrays (fast path or not — both consult the cross-query
	// cache): each predicate's canonical form, packed payload hash and
	// table set, plus the positions insertion-sorted into canonical
	// PredLess order (ties keep position order). Together they make cache
	// keys, cache-hit verification and cardinality table math pure integer
	// work.
	canonPreds []engine.Pred
	predHash   []uint64
	predTables []engine.TableSet
	canonOrder []uint8

	// Arenas for cache-hit decoding (newDecomp/newFactors): decompositions
	// and factors are carved out of pooled chunks, so the cached read path
	// allocates nothing in steady state. Chunks grow by abandonment — a
	// full chunk stays referenced by the memo and a larger one is started.
	decBuf []decomp
	facBuf []factor

	// fast mirrors !Estimator.NoFastPath: the run-level hot-path machinery
	// below is live. (Pooled tables stay allocated either way; fast is the
	// routing switch.)
	fast bool
	// The component index and the candidate matcher are bound to the query
	// on first use: only computing a decomposition consults them, never a
	// cached read.
	comps        engine.CompIndex
	compsBound   bool
	matcher      sit.Matcher
	matcherBound bool
	joinSels     map[sitPair]float64 // per-run histogram-join selectivities

	// frame is the positional frame every entry this run publishes to the
	// cross-query cache shares, allocated at the first publish (cache.go).
	frame *CacheFrame

	// Chain-key interning. Chain keys are tie-break/diagnostic strings
	// only; they are needed the first time a decomposition is actually
	// computed, never on a pure cached read, so ensureChainKeys builds
	// them lazily and pure cache-hit runs build no strings at all.
	chainKeys bool
	headKeys  []string // chain-key heads per position
}

type truthKey struct {
	pred int
	cond engine.PredSet
}

// NewRun starts a getSelectivity run for one query, drawing a pooled
// context when the estimator has one. Pair with Release to recycle it.
func (e *Estimator) NewRun(q *engine.Query) *Run {
	if len(q.Preds) >= 64 {
		panic("core: queries support at most 63 predicates")
	}
	r := e.getRun()
	r.Est = e
	r.Query = q
	r.modelName = e.Model.Name()
	r.gen = e.Pool.Generation()

	n := len(q.Preds)
	r.canonPreds = growPreds(r.canonPreds, n)
	r.predHash = growUint64(r.predHash, n)
	r.predTables = growTables(r.predTables, n)
	r.canonOrder = growUint8(r.canonOrder, n)
	for i, p := range q.Preds {
		r.canonPreds[i] = p.Canon()
		r.predHash[i] = p.SigHash()
		r.predTables[i] = p.Tables(q.Cat)
	}
	// Insertion-sort positions into canonical order: allocation-free for
	// n ≤ 63, and stable (strict-less shifts only), so duplicate
	// predicates keep ascending position order.
	for i := 0; i < n; i++ {
		j := i
		for j > 0 && engine.PredLess(r.canonPreds[i], r.canonPreds[r.canonOrder[j-1]]) {
			r.canonOrder[j] = r.canonOrder[j-1]
			j--
		}
		r.canonOrder[j] = uint8(i)
	}

	if e.NoFastPath {
		return r
	}
	r.fast = true
	if r.joinSels == nil {
		r.joinSels = make(map[sitPair]float64, 16)
	}
	return r
}

func (e *Estimator) getRun() *Run {
	if e.runPool == nil {
		// Zero-value Estimators (tests construct them literally) still
		// work; they just allocate a fresh run per query.
		return new(Run)
	}
	return e.runPool.Get().(*Run)
}

// Release resets the run and returns it to its estimator's pool, where the
// next NewRun reuses its tables and arenas. It must be the caller's LAST
// use of the run; Results obtained from it are values and outlive it.
// Releasing is optional (an unreleased run is ordinary garbage). Release on
// a nil or never-pooled run is a no-op, and so is a second Release, until
// the pool hands the run to the next NewRun: from then on a stale handle is
// the new owner's run.
func (r *Run) Release() {
	if r == nil || r.Est == nil {
		return
	}
	pool := r.Est.runPool
	if pool == nil {
		return
	}
	r.reset()
	pool.Put(r)
}

// reset clears everything query-specific while keeping table and array
// capacity, in time proportional to what the query used. Pointer-bearing
// state (SITs, decompositions, the estimator and query themselves) is
// nilled or zeroed so a parked run pins nothing; the component index holds
// no pointers and is rebound on its next use.
func (r *Run) reset() {
	r.Est = nil
	r.Query = nil
	r.HistNanos = 0
	r.budget = nil
	r.modelName = ""
	r.gen = 0
	r.memo.Reset()
	r.truthMemo = nil
	r.derivedMemo = nil
	r.fast = false
	r.compsBound = false
	if r.matcherBound {
		r.matcher.Reset(nil, nil)
		r.matcherBound = false
	}
	clear(r.joinSels)
	r.frame = nil
	r.chainKeys = false
	r.headKeys = nil
	for i := range r.decBuf {
		r.decBuf[i] = decomp{}
	}
	r.decBuf = r.decBuf[:0]
	for i := range r.facBuf {
		r.facBuf[i] = factor{}
	}
	r.facBuf = r.facBuf[:0]
}

func growPreds(s []engine.Pred, n int) []engine.Pred {
	if cap(s) < n {
		return make([]engine.Pred, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growTables(s []engine.TableSet, n int) []engine.TableSet {
	if cap(s) < n {
		return make([]engine.TableSet, n)
	}
	return s[:n]
}

func growUint8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// newDecomp carves one zeroed decomposition out of the run's arena. The
// pointer stays valid until Release: a full chunk is abandoned to its
// existing referents (the memo) and a larger chunk started, so grown arenas
// never move live decompositions.
func (r *Run) newDecomp() *decomp {
	if len(r.decBuf) == cap(r.decBuf) {
		c := 2 * cap(r.decBuf)
		if c < 64 {
			c = 64
		}
		r.decBuf = make([]decomp, 0, c)
	}
	r.decBuf = r.decBuf[:len(r.decBuf)+1]
	d := &r.decBuf[len(r.decBuf)-1]
	*d = decomp{}
	return d
}

// newFactors carves a full-capacity slice of n zeroed factors out of the
// run's arena (same lifetime rules as newDecomp).
func (r *Run) newFactors(n int) []factor {
	if n == 0 {
		return nil
	}
	if len(r.facBuf)+n > cap(r.facBuf) {
		c := 2 * (cap(r.facBuf) + n)
		if c < 256 {
			c = 256
		}
		r.facBuf = make([]factor, 0, c)
	}
	start := len(r.facBuf)
	r.facBuf = r.facBuf[:start+n]
	f := r.facBuf[start : start+n : start+n]
	for i := range f {
		f[i] = factor{}
	}
	return f
}

// GetSelectivity implements Figure 3: it returns the most accurate
// estimation of Sel(set) together with its error, memoizing every sub-result
// so later requests for sub-queries are free.
func (r *Run) GetSelectivity(set engine.PredSet) Result {
	return r.decompose(set).Result
}

// decompose is GetSelectivity's memoized lookup: it returns the chosen
// decomposition of set from the memo, the cross-query cache or a fresh
// computation, in that order.
func (r *Run) decompose(set engine.PredSet) *decomp {
	if !set.SubsetOf(r.Query.All()) {
		panic("core: predicate set outside the query")
	}
	if d, ok := r.memo.Get(0, uint64(set)); ok {
		return d
	}
	if d, ok := r.cacheGet(set); ok {
		r.memo.Put(0, uint64(set), d)
		return d
	}
	d := r.compute(set)
	r.memo.Put(0, uint64(set), d)
	r.cachePut(set, d)
	return d
}

// compsFor returns the run's component index, binding it to the query on
// first use: components are only consulted while computing a
// decomposition, never on a cached read.
func (r *Run) compsFor() *engine.CompIndex {
	if !r.compsBound {
		r.comps.Reset(r.Query.Cat, r.Query.Preds)
		r.compsBound = true
	}
	return &r.comps
}

// matcherFor returns the run's candidate matcher, binding it on first use
// (cold path, like compsFor).
func (r *Run) matcherFor() *sit.Matcher {
	if !r.matcherBound {
		r.matcher.Reset(r.Est.Pool, r.Query.Preds)
		r.matcherBound = true
	}
	return &r.matcher
}

// components returns set's connected components, via the run's component
// index on the fast path.
func (r *Run) components(set engine.PredSet) []engine.PredSet {
	if r.fast {
		return r.compsFor().Components(set)
	}
	return engine.Components(r.Query.Cat, r.Query.Preds, set)
}

func (r *Run) compute(set engine.PredSet) *decomp {
	r.budget.node()
	if set.Empty() {
		return &decomp{Result: Result{Sel: 1, Err: 0}}
	}
	r.ensureChainKeys()
	comps := r.components(set)
	if len(comps) > 1 {
		return r.mergeSeparable(comps)
	}

	// Lines 9-17: non-separable — try atomic decompositions
	// Sel(set) = Sel(p|set−p)·Sel(set−p) and keep the most accurate. Line
	// 10 of Figure 3 tries every P' ⊆ set; the search tries single
	// predicates p only (O(2ⁿ·n) instead of O(3ⁿ)). With unidimensional
	// SITs a multi-predicate factor Sel(P'|Q) is approximated as a chain of
	// single-predicate factors on grown conditioning sets (§3.3), which is a
	// decomposition this search explores anyway, so it finds the same
	// minimum (TestSingletonEqualsExhaustive and TestDPOptimality check it
	// against the printed loop).
	// Equal-score decompositions are common (the same SITs chosen in a
	// different order); ties break on the canonical chain key, which
	// selects the chain with the smallest head predicate signature — the
	// same winner for either positional layout of the same structural
	// predicate set (which is what lets results be shared across queries
	// through the selectivity cache).
	// Candidates are scored without allocating: the running best and the
	// candidate under test are frame-local (their SITs in two stack buffers
	// that swap with them, their chain keys held as head and remainder
	// segments compared lazily), and only the winner's decomposition, factor
	// slice, SIT slice and key are allocated after the loop.
	var bufA, bufB [2]*sit.SIT // a singleton factor uses at most two SITs
	best := candidate{err: math.Inf(1), sits: bufA[:0]}
	cur := candidate{sits: bufB[:0]}
	try := func(i int) {
		cur.pp = engine.PredSet(1) << uint(i)
		cur.qq = set.Minus(cur.pp)
		cur.rest = r.decompose(cur.qq)
		cur.selF, cur.errF, cur.sits = r.approxFactor(i, cur.qq, cur.sits[:0])
		cur.err = cur.errF + cur.rest.Err
		tol := 1e-9 * (1 + math.Abs(best.err))
		if math.IsInf(best.err, 1) || cur.err < best.err-tol ||
			(cur.err <= best.err+tol && concatLess(r.chainHead(i), cur.rest.key, best.head, best.rest.key)) {
			cur.head = r.chainHead(i)
			best, cur = cur, best
		}
	}
	for s := uint64(set); s != 0; s &= s - 1 {
		try(bits.TrailingZeros64(s))
	}
	return buildWinner(&best)
}

// candidate is one atomic decomposition Sel(pp|qq)·Sel(qq) scored by
// compute's loop, pp a single predicate. sits points into a caller-owned
// stack buffer.
type candidate struct {
	pp, qq     engine.PredSet
	rest       *decomp // memoized decomposition of qq
	selF, errF float64
	err        float64 // errF + rest.Err
	sits       []*sit.SIT
	head       string // chain-key head, set once the candidate leads
}

// buildWinner allocates the winning candidate's decomposition: its factor
// slice (head factor, then the remainder's factors), an exact-size copy of
// its SITs and its chain key.
func buildWinner(c *candidate) *decomp {
	sits := make([]*sit.SIT, len(c.sits))
	copy(sits, c.sits)
	factors := make([]factor, 0, 1+len(c.rest.factors))
	factors = append(factors, factor{P: c.pp, Q: c.qq, Sel: c.selF, Err: c.errF, SITs: sits})
	factors = append(factors, c.rest.factors...)
	//lint:ignore hotalloc cold path: the winner's chain key is materialized once per computed subset
	key := c.head + c.rest.key
	return &decomp{Result: Result{Sel: c.selF * c.rest.Sel, Err: c.err}, factors: factors, key: key}
}

// mergeSeparable implements lines 4-7 of Figure 3: a separable set's
// components are solved independently and merged. The merged key
// concatenates the bracketed component keys in sorted order, so it is
// canonical regardless of the components' predicate positions (it feeds
// tie-breaks higher up the DP). Sorting on concatLess(a.key, "]", b.key,
// "]") orders components exactly as sorting the bracketed strings would,
// since every one of them starts with the same "[".
func (r *Run) mergeSeparable(comps []engine.PredSet) *decomp {
	var stack [8]*decomp
	subs := stack[:0]
	res := &decomp{Result: Result{Sel: 1, Err: 0}}
	nf, nk := 0, 0
	for _, comp := range comps {
		sub := r.decompose(comp)
		res.Sel *= sub.Sel
		res.Err += sub.Err
		nf += len(sub.factors)
		nk += len(sub.key) + 2
		subs = append(subs, sub)
	}
	if nf > 0 {
		res.factors = make([]factor, 0, nf)
		for _, sub := range subs {
			res.factors = append(res.factors, sub.factors...)
		}
	}
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && concatLess(subs[j].key, "]", subs[j-1].key, "]"); j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	var sb strings.Builder
	sb.Grow(nk)
	for _, sub := range subs {
		sb.WriteByte('[')
		sb.WriteString(sub.key)
		sb.WriteByte(']')
	}
	res.key = sb.String()
	return res
}

// ensureChainKeys builds the run's interned chain-key tables on the first
// compute call. Chain keys are pure tie-break/diagnostic strings: a run
// whose every request is satisfied by the memo or the cross-query cache
// never needs them, which keeps the cached path string-free. Both search
// paths (fast and NoFastPath) use the same interned strings — they are
// byte-identical to what engine.PredsKey and a per-call build would yield.
func (r *Run) ensureChainKeys() {
	if r.chainKeys {
		return
	}
	r.chainKeys = true
	r.headKeys = make([]string, len(r.Query.Preds))
	for i, p := range r.Query.Preds {
		class := "b"
		if p.IsJoin() {
			class = "a"
		}
		//lint:ignore hotalloc cold path: chain-key heads are built once per computing run, never on a cached read
		r.headKeys[i] = "0" + class + p.Key() + "."
	}
}

// chainHead encodes the head factor Sel(pred|…) of a decomposition chain
// for canonical tie-breaking; the remainder chain's key follows the head
// (see concatLess). Heads are identified by their structural predicate
// signature rather than their position within the query, so the winning
// chain — and therefore the whole decomposition — is a pure function of the
// structural predicate set, the pool and the error model. That position
// independence is what makes decompositions shareable across queries via
// the cross-query selectivity cache.
//
// Among equal-error heads, join predicates ("a" class) win over filters
// ("b" class): the head factor carries the largest conditioning set, and
// conditioning joins on filters (rather than the reverse) is where SITs pay
// off — the same preference the workload's joins-first predicate layout
// gave the old positional tie-break. Every head starts with "0": when two
// candidates' heads tie (a duplicated predicate), the comparison reaches
// their remainder keys, where the prefix orders a chain ("0…") before a
// separable merge ("[…"), so the prefix is part of the tie-break.
//
// compute calls chainHead after ensureChainKeys; heads are interned per
// run.
func (r *Run) chainHead(pred int) string {
	return r.headKeys[pred]
}

// concatLess reports whether a1+a2 < b1+b2 lexicographically, without
// materializing either concatenation. It lets chain-key tie-breaks compare
// (head, rest) segment pairs allocation-free.
func concatLess(a1, a2, b1, b2 string) bool {
	la, lb := len(a1)+len(a2), len(b1)+len(b2)
	n := la
	if lb < n {
		n = lb
	}
	for i := 0; i < n; i++ {
		var ca, cb byte
		if i < len(a1) {
			ca = a1[i]
		} else {
			ca = a2[i-len(a1)]
		}
		if i < len(b1) {
			cb = b1[i]
		} else {
			cb = b2[i-len(b1)]
		}
		if ca != cb {
			return ca < cb
		}
	}
	return la < lb
}

// EstimateCardinality returns the estimated cardinality of the sub-query
// σ_set over its referenced tables: Sel(set) · |tables(set)^×|. The table
// union uses the run's precomputed per-position table sets, keeping the
// cached path allocation-free.
func (r *Run) EstimateCardinality(set engine.PredSet) float64 {
	sel := r.decompose(set).Sel
	var tables engine.TableSet
	for s := uint64(set); s != 0; s &= s - 1 {
		tables = tables.Union(r.predTables[bits.TrailingZeros64(s)])
	}
	return sel * r.Query.Cat.CrossSize(tables)
}

// Explain renders the chosen decomposition for the predicate set.
func (r *Run) Explain(set engine.PredSet) string {
	d := r.decompose(set)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sel = %.6g  (error %.4g, model %s)\n", d.Sel, d.Err, r.Est.Model.Name())
	for _, f := range d.factors {
		sb.WriteString("  · ")
		sb.WriteString(f.format(r.Query))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SITsRead returns the pool's 1-D statistics the chosen decomposition of set
// reads, in factor order. A derived SIT (§3.3 Example 3) stands for its
// Source, the pool statistic it was derived from; its 2-D input is not a 1-D
// statistic and is not returned. A fallback factor reads none; a statistic
// read by two factors appears twice. The slice is the caller's and outlives
// Release.
func (r *Run) SITsRead(set engine.PredSet) []*sit.SIT {
	var out []*sit.SIT
	for _, f := range r.decompose(set).factors {
		for _, s := range f.SITs {
			if s != nil && s.Source != nil {
				s = s.Source
			}
			if s != nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// trueConditional returns the exact Sel(pred|cond), caching per run. It is
// only available when the estimator has an oracle.
func (r *Run) trueConditional(pred int, cond engine.PredSet) float64 {
	key := truthKey{pred, cond}
	if v, ok := r.truthMemo[key]; ok {
		return v
	}
	if r.truthMemo == nil {
		r.truthMemo = make(map[truthKey]float64)
	}
	v := r.Est.Oracle.ConditionalSelectivity(r.Query.Tables, r.Query.Preds,
		engine.NewPredSet(pred), cond)
	r.truthMemo[key] = v
	return v
}
