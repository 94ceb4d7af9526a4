package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"

	"condsel/internal/core"
	"condsel/internal/engine"
	"condsel/internal/lifecycle"
	"condsel/internal/qtext"
)

// The server side of a pass runs in a child process of its own: core's
// histogram-join cache and the run pools are process-wide, and the load
// generator must not share the server's Go scheduler, or its timers fire
// late whenever the DP holds both Ps. Next to the estimation listener the
// child serves a control listener the load generator uses to frame the
// measured window and to send drift feedback.

// Ready is the line a server child prints once its listener is up.
type Ready struct {
	URL        string `json:"url"`
	Control    string `json:"control"`
	Generation uint64 `json:"generation"` // the pool generation it starts at
}

// ServerWindow is what the server process measured over one window.
type ServerWindow struct {
	SelHits, SelMisses, SelEvictions int64
	HistJoinHits, HistJoinMisses     int64
	Swaps, Rebuilds                  int64
	AllocBytes                       uint64
	GCCPU, TotalCPU                  float64 // seconds
	CacheNanos                       int64   // traced only
	MatchCalls                       int64   // traced only
	HeapMB                           float64 // median live heap over the window
	Spans                            []Span  // traced only
}

type counters struct {
	selHits, selMisses, selEvictions int64
	hjHits, hjMisses                 int64
	swaps, rebuilds                  int64
	alloc                            uint64
	gcCPU, totalCPU                  float64
	cacheNanos, match                int64
}

// control serves the child's control endpoints.
type control struct {
	dep *Deployment

	mu      sync.Mutex
	before  counters
	heap    *heapSampler // running between /begin and /end
	queries map[string]*engine.Query
}

// heapEvery is how often a window samples the live heap.
const heapEvery = 100 * time.Millisecond

// heapSampler reads the live heap, the bytes the last GC cycle found
// reachable, every heapEvery until stopped. Sampling it costs no GC of its
// own, and its median over the window does not depend on where in the
// cache's fill and purge cycle the window happens to end.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		var mb []float64
		for {
			select {
			case <-h.stop:
				h.done <- append(mb, liveHeapMB())
				return
			case <-t.C:
				mb = append(mb, liveHeapMB())
			}
		}
	}()
	return h
}

// Stop ends the sampling and returns the samples in MB.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	return <-h.done
}

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// swapHeap replaces the running heap sampler, returning the old one's
// samples.
func (c *control) swapHeap(next *heapSampler) []float64 {
	c.mu.Lock()
	prev := c.heap
	c.heap = next
	c.mu.Unlock()
	if prev == nil {
		return nil
	}
	return prev.Stop()
}

func (c *control) read() counters {
	s := c.dep.Cache.Stats()
	hj := core.HistJoinCacheStats()
	life := c.dep.Mgr.CountersSnapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	k := counters{
		selHits: s.Hits, selMisses: s.Misses, selEvictions: s.Evictions,
		hjHits: hj.Hits, hjMisses: hj.Misses, swaps: life.Swaps, rebuilds: life.Rebuilds,
		alloc: ms.TotalAlloc,
	}
	if cpu[0].Value.Kind() == metrics.KindFloat64 && cpu[1].Value.Kind() == metrics.KindFloat64 {
		k.gcCPU, k.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	}
	if lc := c.dep.Counts; lc != nil {
		k.cacheNanos, k.match = lc.cacheNanos.Load(), lc.matchCalls.Load()
	}
	return k
}

func (c *control) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/begin", func(w http.ResponseWriter, r *http.Request) {
		k := c.read()
		if c.dep.Rec != nil {
			c.dep.Rec.Take()
		}
		c.mu.Lock()
		c.before = k
		c.mu.Unlock()
		c.swapHeap(startHeapSampler())
	})
	mux.HandleFunc("/end", func(w http.ResponseWriter, r *http.Request) {
		a := c.read()
		heap := c.swapHeap(nil)
		c.mu.Lock()
		b := c.before
		c.mu.Unlock()
		sw := ServerWindow{
			SelHits: a.selHits - b.selHits, SelMisses: a.selMisses - b.selMisses, SelEvictions: a.selEvictions - b.selEvictions,
			HistJoinHits: a.hjHits - b.hjHits, HistJoinMisses: a.hjMisses - b.hjMisses,
			Swaps: a.swaps - b.swaps, Rebuilds: a.rebuilds - b.rebuilds,
			AllocBytes: a.alloc - b.alloc, GCCPU: a.gcCPU - b.gcCPU, TotalCPU: a.totalCPU - b.totalCPU,
			CacheNanos: a.cacheNanos - b.cacheNanos, MatchCalls: a.match - b.match,
		}
		if c.dep.Rec != nil {
			sw.Spans = c.dep.Rec.Take()
		}
		sw.HeapMB = Median(heap)
		writeJSON(w, http.StatusOK, sw)
	})
	// /observe feeds one read's exact cardinality back through
	// lifecycle.Manager.ObserveAt, as an executor would after running the
	// query, then waits until the rebuilds it caused have been swapped in.
	mux.HandleFunc("/observe", func(w http.ResponseWriter, r *http.Request) {
		v := r.URL.Query()
		gen, err1 := strconv.ParseUint(v.Get("gen"), 10, 64)
		card, err2 := strconv.ParseFloat(v.Get("card"), 64)
		truth, err3 := strconv.ParseFloat(v.Get("truth"), 64)
		text, err4 := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			http.Error(w, "bad observation", http.StatusBadRequest)
			return
		}
		q, err := c.query(string(text))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t0 := time.Now()
		c.dep.Mgr.ObserveAt(gen, q, q.All(), card, truth)
		t1 := time.Now()
		if err := settle(c.dep.Mgr, t1.Add(settleLimit)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, Observation{Observe: t1.Sub(t0), Settle: time.Since(t1)})
	})
	return mux
}

// Observation is how long one drift write took in the server.
type Observation struct {
	Observe time.Duration // the ObserveAt call
	Settle  time.Duration // then until no statistic was stale or rebuilding
}

// settleLimit bounds the wait for the rebuilds one observation causes; each
// takes milliseconds.
const settleLimit = 10 * time.Second

// settle waits until the lifecycle manager has no statistic stale or being
// rebuilt: every rebuild the last observation queued has been swapped in.
func settle(m *lifecycle.Manager, deadline time.Time) error {
	for {
		c := m.CountersSnapshot()
		if c.Stale == 0 && c.Rebuilding == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lifecycle still has %d stale and %d rebuilding statistics after %v", c.Stale, c.Rebuilding, settleLimit)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// query parses a query once and keeps it for later observations.
func (c *control) query(text string) (*engine.Query, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.queries[text]; ok {
		return q, nil
	}
	q, err := qtext.Parse(c.dep.DB.Cat, text)
	if err != nil {
		return nil, err
	}
	c.queries[text] = q
	return q, nil
}

// serverNice is the server process's nice value. The load generator shares
// the machine's cores with the server; at a lower priority the server
// cannot delay the generator's wake-ups by a scheduling slice, which would
// make the open loop send late.
const serverNice = 10

// lowerPriority sets every thread of the process to the nice value. Linux
// keeps a nice value per thread and a new thread inherits its creator's, so
// setting the threads that exist now covers those started later.
func lowerPriority(nice int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return fmt.Errorf("listing threads: %w", err)
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, nice); err != nil {
			return fmt.Errorf("lowering the priority of thread %d: %w", tid, err)
		}
	}
	return nil
}

// ServeChild deploys the server, prints its Ready line, serves until stdin
// closes, then shuts down.
func ServeChild(traced bool, stdin io.Reader, stdout io.Writer) error {
	if err := lowerPriority(serverNice); err != nil {
		return err
	}
	dep, err := Deploy(traced)
	if err != nil {
		return err
	}
	err = serveControl(dep, stdin, stdout)
	if cerr := dep.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func serveControl(dep *Deployment, stdin io.Reader, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c := &control{dep: dep, queries: map[string]*engine.Query{}}
	hs := &http.Server{Handler: c.handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	line, err := json.Marshal(Ready{URL: dep.URL, Control: "http://" + ln.Addr().String(), Generation: dep.Mgr.Generation()})
	if err == nil {
		_, err = fmt.Fprintf(stdout, "%s\n", line)
	}
	if err == nil {
		// The parent closes stdin to stop the server; a parent that dies
		// closes it too.
		_, err = io.Copy(io.Discard, stdin)
	}
	if serr := hs.Close(); serr != nil && err == nil {
		err = serr
	}
	<-served
	c.swapHeap(nil)
	return err
}
