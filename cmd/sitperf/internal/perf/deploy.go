package perf

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"condsel/internal/core"
	"condsel/internal/datagen"
	"condsel/internal/lifecycle"
	"condsel/internal/serve"
	"condsel/internal/sit"
	"condsel/internal/workload"
)

// The deployment under test is sitserve with its defaults, except for one
// admission slot: on a 2-core machine that leaves the other core for
// loopback HTTP, the load generator, GC and rebuild workers.
const (
	dataSeed        = 42 // the database and SIT pool, fixed: -seed drives only the inputs
	factRows        = 20000
	poolQueries     = 25
	poolJoins       = 3
	maxPool         = 3
	cacheCap        = 4096
	defaultDeadline = 250 * time.Millisecond
	maxDeadline     = 5 * time.Second
	concurrency     = 1
	sloTarget       = 500 * time.Millisecond
)

// Deployment is a running sitserve-shaped server on a loopback listener.
type Deployment struct {
	DB    *datagen.DB
	Mgr   *lifecycle.Manager
	Cache *core.SelCacheStore
	Srv   *serve.Server
	URL   string // base URL of the listener

	// Rec and Counts are set on a traced deployment only.
	Rec    *Recorder
	Counts *layerCounts

	stop    context.CancelFunc
	httpSrv *http.Server // the traced handler's server; nil when untraced
	served  chan error
}

// Database generates the deployment's snowflake database.
func Database() *datagen.DB {
	return datagen.Generate(datagen.Config{Seed: dataSeed, FactRows: factRows})
}

// BuildPool builds the deployment's SIT pool from its training workload.
func BuildPool(db *datagen.DB) (*sit.Pool, error) {
	wl, err := workload.NewGenerator(db, workload.Config{
		Seed: dataSeed, NumQueries: poolQueries, Joins: poolJoins, Filters: filters,
	}).Generate()
	if err != nil {
		return nil, fmt.Errorf("training workload: %w", err)
	}
	return sit.BuildWorkloadPoolParallel(db.Cat, wl, maxPool, runtime.GOMAXPROCS(0), nil), nil
}

// Deploy builds the database, the training workload, the SIT pool and the
// lifecycle manager as sitserve's run does, and starts serving on a loopback
// port. With traced set, the bench-owned handler and ladder record spans.
func Deploy(traced bool) (*Deployment, error) {
	db := Database()
	pool, err := BuildPool(db)
	if err != nil {
		return nil, err
	}
	cache := core.NewSelCache(cacheCap)
	mgr := lifecycle.New(db.Cat, pool, lifecycle.Config{Cache: cache, Seed: dataSeed})
	ctx, stop := context.WithCancel(context.Background())
	if err := mgr.Start(ctx); err != nil {
		stop()
		return nil, fmt.Errorf("lifecycle: %w", err)
	}
	d := &Deployment{DB: db, Mgr: mgr, Cache: cache, stop: stop, served: make(chan error, 1)}

	var est serve.Estimator = serve.LadderSource(mgr.Estimator)
	if traced {
		d.Rec, d.Counts = NewRecorder(serverIDs), &layerCounts{}
		est = &tracedLadder{source: mgr.Estimator, rec: d.Rec, counts: d.Counts}
	}
	d.Srv, err = serve.New(serve.Config{
		Catalog:         db.Cat,
		Estimator:       est,
		MaxConcurrent:   concurrency,
		DefaultDeadline: defaultDeadline,
		MaxDeadline:     maxDeadline,
		SLO:             serve.SLOConfig{TargetP99: sloTarget},
		Cache:           cache,
		Pool:            func() *sit.Pool { return mgr.Estimator().Pool },
		Lifecycle:       mgr,
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	d.URL = "http://" + ln.Addr().String()
	if traced {
		d.httpSrv = &http.Server{
			Handler: &tracedHandler{srv: d.Srv, cat: db.Cat, rec: d.Rec,
				defDeadline: defaultDeadline, maxDeadline: maxDeadline},
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() { d.served <- d.httpSrv.Serve(ln) }()
	} else {
		go func() { d.served <- d.Srv.Serve(ln) }()
	}
	return d, nil
}

// Close shuts the server down, waits for it to stop serving, and stops the
// lifecycle workers.
func (d *Deployment) Close() error {
	var err error
	if d.Srv != nil && d.URL != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if d.httpSrv != nil {
			err = d.httpSrv.Shutdown(ctx)
		} else {
			err = d.Srv.Shutdown(ctx)
		}
		cancel()
		if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if merr := d.Mgr.Stop(); merr != nil && err == nil {
		err = merr
	}
	d.stop()
	return err
}
