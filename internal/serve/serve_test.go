package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/lifecycle"
	"condsel/internal/robust"
	"condsel/internal/sit"
)

// testFixture builds the repository's standard 3-table correlated star (the
// same shape internal/robust tests use) plus a server fronting it.
type testFixture struct {
	cat   *engine.Catalog
	pool  *sit.Pool
	est   *core.Estimator
	query string
}

func newTestFixture(seed int64) *testFixture {
	rng := rand.New(rand.NewSource(seed))
	cat := engine.NewCatalog()
	const nCustomers, nOrders = 50, 250

	cid := make([]int64, nCustomers)
	nation := make([]int64, nCustomers)
	for i := range cid {
		cid[i] = int64(i)
		if rng.Float64() < 0.8 {
			nation[i] = 1
		} else {
			nation[i] = int64(2 + rng.Intn(20))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "customer", Cols: []*engine.Column{
		{Name: "id", Vals: cid},
		{Name: "nation", Vals: nation},
	}})

	oid := make([]int64, nOrders)
	ocid := make([]int64, nOrders)
	price := make([]int64, nOrders)
	var liOID, liQty []int64
	for i := range oid {
		oid[i] = int64(i)
		ocid[i] = int64(rng.Intn(nCustomers))
		price[i] = int64(rng.Intn(1000))
		items := 1
		if price[i] > 800 {
			items = 15
		}
		for k := 0; k < items; k++ {
			liOID = append(liOID, oid[i])
			liQty = append(liQty, int64(rng.Intn(50)))
		}
	}
	cat.MustAddTable(&engine.Table{Name: "orders", Cols: []*engine.Column{
		{Name: "id", Vals: oid},
		{Name: "cid", Vals: ocid},
		{Name: "price", Vals: price},
	}})
	cat.MustAddTable(&engine.Table{Name: "lineitem", Cols: []*engine.Column{
		{Name: "oid", Vals: liOID},
		{Name: "qty", Vals: liQty},
	}})

	preds := []engine.Pred{
		engine.Join(cat.MustAttr("lineitem.oid"), cat.MustAttr("orders.id")),
		engine.Join(cat.MustAttr("orders.cid"), cat.MustAttr("customer.id")),
		engine.Filter(cat.MustAttr("orders.price"), 801, 1000),
		engine.Eq(cat.MustAttr("customer.nation"), 1),
	}
	q := engine.NewQuery(cat, preds)
	pool := sit.BuildWorkloadPool(sit.NewBuilder(cat), []*engine.Query{q}, 2)
	return &testFixture{
		cat:   cat,
		pool:  pool,
		est:   core.NewEstimator(cat, pool, core.NInd{}),
		query: "lineitem.oid = orders.id AND orders.cid = customer.id AND orders.price BETWEEN 801 AND 1000 AND customer.nation = 1",
	}
}

func (f *testFixture) server(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Catalog = f.cat
	if cfg.Estimator == nil {
		cfg.Estimator = LadderSource(func() *core.Estimator { return f.est })
	}
	if cfg.Pool == nil {
		cfg.Pool = func() *sit.Pool { return f.pool }
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func doJSON(t *testing.T, h http.Handler, method, target, body string) (int, EstimateResult, http.Header) {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var res EstimateResult
	if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest &&
		rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("%s %s: unexpected status %d: %s", method, target, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.String(), err)
	}
	return rec.Code, res, rec.Result().Header
}

// TestEstimateEndpoint: a healthy request under a generous deadline answers
// 200 at full fidelity with complete provenance.
func TestEstimateEndpoint(t *testing.T) {
	t.Parallel()
	f := newTestFixture(1)
	s := f.server(t, Config{})

	code, res, _ := doJSON(t, s.Handler(), "GET",
		"/estimate?deadline_ms=1000&q="+urlQuery(f.query), "")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (%+v)", code, res)
	}
	if res.Tier != robust.TierFullDP.String() {
		t.Fatalf("tier = %q, want full-dp (reason %q)", res.Tier, res.FallbackReason)
	}
	if math.IsNaN(res.Cardinality) || math.IsInf(res.Cardinality, 0) || res.Cardinality < 0 {
		t.Fatalf("cardinality = %v, want finite non-negative", res.Cardinality)
	}
	if res.DeadlineMs != 1000 {
		t.Fatalf("deadline_ms = %v, want 1000", res.DeadlineMs)
	}
}

// TestDeadlineMappedDegradation: a deadline in the GVM band answers from a
// cheaper tier with the "deadline-mapped" skip reason in its provenance.
func TestDeadlineMappedDegradation(t *testing.T) {
	t.Parallel()
	f := newTestFixture(2)
	s := f.server(t, Config{FloorReserve: time.Nanosecond})

	req := httptest.NewRequest("GET", "/estimate?q="+urlQuery(f.query), nil)
	req.Header.Set(DeadlineHeader, "3")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var res EstimateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if res.Tier == robust.TierFullDP.String() || res.Tier == robust.TierBudgetedDP.String() {
		t.Fatalf("3ms deadline answered at %q, want gvm or lower", res.Tier)
	}
	if !strings.Contains(res.FallbackReason, "deadline-mapped") {
		t.Fatalf("fallback reason %q does not carry deadline-mapped", res.FallbackReason)
	}
}

// TestBadRequestsAreNever5xx: malformed input is the client's fault — 400
// with a JSON error body, never a server error.
func TestBadRequestsAreNever5xx(t *testing.T) {
	t.Parallel()
	f := newTestFixture(3)
	s := f.server(t, Config{})

	for _, target := range []string{
		"/estimate",                           // no query at all
		"/estimate?q=nonsense%20garbage",      // unparsable
		"/estimate?q=missing.table%20%3D%201", // unknown attribute
		"/estimate?deadline_ms=bogus&q=" + urlQuery(f.query),
		"/estimate?deadline_ms=-5&q=" + urlQuery(f.query),
	} {
		code, res, _ := doJSON(t, s.Handler(), "GET", target, "")
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", target, code)
		}
		if res.Error == "" {
			t.Fatalf("%s: 400 with empty error field", target)
		}
	}
}

// TestBatchEndpoint: one bad line fails alone; good lines still answer, in
// order, each with provenance.
func TestBatchEndpoint(t *testing.T) {
	t.Parallel()
	f := newTestFixture(4)
	s := f.server(t, Config{})

	body := f.query + "\n\nnot a query\n" + f.query + "\n"
	req := httptest.NewRequest("POST", "/estimate/batch?deadline_ms=2000", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out []EstimateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	if out[0].Error != "" || out[2].Error != "" {
		t.Fatalf("good lines errored: %+v / %+v", out[0], out[2])
	}
	if out[1].Error == "" {
		t.Fatalf("bad line did not error: %+v", out[1])
	}
	for _, r := range []EstimateResult{out[0], out[2]} {
		if r.Tier == "" {
			t.Fatalf("result missing provenance: %+v", r)
		}
	}
}

// TestHealthEndpoints: /healthz is always 200; /readyz flips to 503 once
// draining.
func TestHealthEndpoints(t *testing.T) {
	t.Parallel()
	f := newTestFixture(5)
	s := f.server(t, Config{})

	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, rec.Code)
		}
	}
	s.BeginDrain()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", rec.Code)
	}
}

// requiredMetrics are the series the ISSUE's field dictionary promises.
var requiredMetrics = []string{
	"condsel_requests_total",
	"condsel_responses_tier_total",
	"condsel_request_duration_seconds_bucket",
	"condsel_request_duration_seconds_sum",
	"condsel_request_duration_seconds_count",
	"condsel_queue_wait_seconds_bucket",
	"condsel_shed_total",
	"condsel_drain_refused_total",
	"condsel_queue_depth",
	"condsel_inflight",
	"condsel_capacity",
	"condsel_slo_admitted_tier",
	"condsel_slo_tightenings_total",
	"condsel_slo_reopenings_total",
	"condsel_pool_sits",
	"condsel_pool_quarantined",
	"condsel_pool_generation",
}

// parsePrometheus is a minimal exposition-format validator: every line is a
// comment or `name{labels} value` with a parseable non-negative value, every
// # TYPE precedes its samples, histogram buckets are cumulative. Returns the
// sample set keyed by full series (name + labels).
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valText, err)
		}
		if math.IsNaN(val) || val < 0 {
			t.Fatalf("line %d: value %v out of range", ln+1, val)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, series)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = val
	}
	return samples
}

// TestMetricsEndpoint: after traffic, /metrics is valid exposition text
// carrying every promised series, and the counters agree with the traffic.
func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	if !sortedBuckets() {
		t.Fatal("latencyBuckets must be ascending")
	}
	f := newTestFixture(6)
	s := f.server(t, Config{})

	for i := 0; i < 5; i++ {
		if code, res, _ := doJSON(t, s.Handler(), "GET",
			"/estimate?deadline_ms=1000&q="+urlQuery(f.query), ""); code != 200 {
			t.Fatalf("warmup request %d failed: %d %+v", i, code, res)
		}
	}
	doJSON(t, s.Handler(), "GET", "/estimate", "") // one 400

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Result().Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text format 0.0.4", ct)
	}
	samples := parsePrometheus(t, rec.Body.String())

	for _, name := range requiredMetrics {
		found := false
		for series := range samples {
			if series == name || strings.HasPrefix(series, name+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("required metric %q missing from /metrics", name)
		}
	}
	if got := samples[`condsel_requests_total{endpoint="estimate",code="200"}`]; got != 5 {
		t.Fatalf("200 counter = %v, want 5", got)
	}
	if got := samples[`condsel_requests_total{endpoint="estimate",code="400"}`]; got != 1 {
		t.Fatalf("400 counter = %v, want 1", got)
	}
	if got := samples[`condsel_responses_tier_total{endpoint="estimate",tier="full-dp"}`]; got != 5 {
		t.Fatalf("full-dp tier counter = %v, want 5", got)
	}
}

// TestMetricsClusterGauges: a configured Cluster source renders the
// distributed-tier series; without one they are absent.
func TestMetricsClusterGauges(t *testing.T) {
	t.Parallel()
	f := newTestFixture(6)
	s := f.server(t, Config{Cluster: func() ClusterCounters {
		return ClusterCounters{
			Nodes: 3, PeersAdmitted: 1, PeersMissing: 1,
			Epoch: 2, LocalGeneration: 7, MergedGeneration: 9,
			Replications: 4, ReplFailures: 2, FenceRejections: 1,
			Degraded: 5,
		}
	}})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples := parsePrometheus(t, rec.Body.String())
	for series, want := range map[string]float64{
		"condsel_cluster_nodes":                      3,
		`condsel_cluster_peers{state="admitted"}`:    1,
		`condsel_cluster_peers{state="missing"}`:     1,
		"condsel_cluster_epoch":                      2,
		"condsel_cluster_local_generation":           7,
		"condsel_cluster_merged_generation":          9,
		"condsel_cluster_replications_total":         4,
		"condsel_cluster_replication_failures_total": 2,
		"condsel_cluster_fence_rejections_total":     1,
		"condsel_cluster_degraded_total":             5,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	bare := f.server(t, Config{})
	rec = httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "condsel_cluster_") {
		t.Fatal("cluster series rendered with no Cluster source configured")
	}
}

// TestMetricsLifecycleStructural: a rebuild over unchanged data shows on
// /metrics as one structural statistic, one rebuild and no swap.
func TestMetricsLifecycleStructural(t *testing.T) {
	t.Parallel()
	f := newTestFixture(6)
	m := lifecycle.New(f.cat, f.pool, lifecycle.Config{Workers: 1})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if id := f.pool.SITs()[0].ID(); !m.MarkStale(id, "test") {
		t.Fatalf("MarkStale(%q) = false", id)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if c := m.CountersSnapshot(); c.Rebuilds == 1 && c.Stale == 0 && c.Rebuilding == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild did not settle: %+v", m.CountersSnapshot())
		}
	}
	s := f.server(t, Config{Lifecycle: m})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples := parsePrometheus(t, rec.Body.String())
	for series, want := range map[string]float64{
		`condsel_lifecycle_statistics{state="structural"}`: 1,
		`condsel_lifecycle_statistics{state="stale"}`:      0,
		"condsel_lifecycle_rebuilds_total":                 1,
		"condsel_lifecycle_swaps_total":                    0,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

func urlQuery(q string) string {
	r := strings.NewReplacer(" ", "%20", "=", "%3D", "<", "%3C", ">", "%3E")
	return r.Replace(q)
}

// stubEstimator answers at the admitted cap after a tier-dependent delay —
// a deterministic stand-in for "higher fidelity costs more".
type stubEstimator struct {
	delays [4]time.Duration
}

func (e *stubEstimator) Estimate(ctx context.Context, q *engine.Query, cfg robust.Config) (float64, robust.Provenance) {
	tier := cfg.MaxTier
	if d := e.delays[int(tier)]; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	prov := robust.Provenance{Tier: tier, Generation: 1}
	if tier != robust.TierFullDP {
		prov.FallbackReason = fmt.Sprintf("stub capped at %s (%s)", tier, cfg.SkipReason)
	}
	return 42, prov
}
