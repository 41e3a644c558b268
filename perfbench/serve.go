package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wire"
	"repro/internal/workload"
)

// engineWorkers is the explanation-search worker count of every engine the
// benchmark builds, one per core of the 2-core machine it was sized on.
const engineWorkers = 2

// dataset is one served dataset: where its snapshot lives, its built-in
// queries, and the library engine that answers as the oracle (and, for
// unique-cold, generates bounds) without touching the served engine's
// caches.
type dataset struct {
	name     string
	snap     string
	builtins []workload.Named
	failing  func(string) (*query.Query, error)
	lib      *core.Engine
	libLoad  *snapshot.Loaded
}

// packInputs generates both datasets at whydbd's default scale and packs
// them into dir, exactly as `whydb pack` would. Packing is input
// generation: it is not part of the timed set-up.
func packInputs(dir string) ([]*dataset, error) {
	dbp := datagen.DefaultDBpedia()
	specs := []struct {
		name     string
		gen      func() *graph.Graph
		builtins []workload.Named
		failing  func(string) (*query.Query, error)
	}{
		{"ldbc", func() *graph.Graph { return datagen.LDBC(datagen.DefaultLDBC()) }, workload.LDBCQueries(), workload.FailingVariant},
		{"dbpedia", func() *graph.Graph { return datagen.DBpedia(dbp) }, workload.DBpediaQueries(), workload.DBpediaFailingVariant},
	}
	var out []*dataset
	for _, s := range specs {
		path := filepath.Join(dir, s.name+".snap")
		if _, err := snapshot.WriteFile(path, s.gen()); err != nil {
			return nil, fmt.Errorf("packing %s: %w", s.name, err)
		}
		loaded, err := snapshot.ReadFile(path, snapshot.ModeAuto)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		lib := core.NewEngine(loaded.Graph)
		lib.SetWorkers(engineWorkers)
		out = append(out, &dataset{name: s.name, snap: path, builtins: s.builtins, failing: s.failing, lib: lib, libLoad: loaded})
	}
	return out, nil
}

// resolve materializes a request's query spec the way the server does.
func (d *dataset) resolve(builtin string, failing bool, wq *wire.Query) (*query.Query, error) {
	switch {
	case builtin != "" && failing:
		return d.failing(builtin)
	case builtin != "":
		for _, nq := range d.builtins {
			if nq.Name == builtin {
				return nq.Build(), nil
			}
		}
		return nil, fmt.Errorf("unknown builtin %q", builtin)
	case wq != nil:
		return wq.ToQuery()
	}
	return nil, errors.New("request names no query")
}

// whydbdConfig is server.Config as whydbd builds it from its flag defaults.
func whydbdConfig() server.Config {
	return server.Config{
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     120 * time.Second,
		MaxBudget:      20000,
		MaxQueueWait:   5 * time.Second,
		Resilience: resilience.Config{
			DegradeAt:     0.5,
			ShedAt:        0.9,
			LatencyBudget: 500 * time.Millisecond,
			EnterHold:     250 * time.Millisecond,
			ExitHold:      2 * time.Second,
		},
	}
}

// stack is one booted serving stack: the server's HTTP listener on
// loopback and (in a trace run) the handler wrapper that records spans.
type stack struct {
	httpSrv *http.Server
	url     string
	tracer  *handlerTracer
	served  chan error
	loads   []*snapshot.Loaded
}

// bootTiming splits one boot into its parts: wall time from start to the
// first 200 from /readyz, and the summed per-dataset snapshot-load time.
type bootTiming struct {
	total    time.Duration
	snapLoad time.Duration
}

// boot starts a serving stack the way whydbd -snapshot does: each dataset's
// snapshot is loaded and wrapped in an engine concurrently, registered with
// AddDataset, and the handler is served on a loopback listener. It returns
// once /readyz answers 200.
func boot(ds []*dataset, traced bool) (*stack, bootTiming, error) {
	start := time.Now()
	srv := server.New(whydbdConfig())
	type loaded struct {
		snap *snapshot.Loaded
		eng  *core.Engine
		load time.Duration
		err  error
	}
	res := make([]loaded, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			snap, err := snapshot.ReadFile(d.snap, snapshot.ModeAuto)
			if err != nil {
				res[i].err = err
				return
			}
			res[i].load = time.Since(t)
			eng := core.NewEngine(snap.Graph)
			eng.SetWorkers(engineWorkers)
			srv.AddDataset(d.name, eng, d.builtins, d.failing)
			srv.SetDatasetSource(d.name, "snapshot:"+filepath.Base(d.snap))
			res[i].snap, res[i].eng = snap, eng
		}()
	}
	wg.Wait()
	st := &stack{served: make(chan error, 1)}
	var timing bootTiming
	for _, r := range res {
		if r.err != nil {
			return nil, timing, fmt.Errorf("boot: %w", r.err)
		}
		st.loads = append(st.loads, r.snap)
		timing.snapLoad += r.load
	}
	srv.SetReady()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, timing, fmt.Errorf("boot: listen: %w", err)
	}
	var handler http.Handler = srv.Handler()
	if traced {
		st.tracer = &handlerTracer{next: handler, spans: make(map[string][2]time.Time)}
		handler = st.tracer
	}
	st.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	st.url = "http://" + ln.Addr().String()
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	probe := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer probe.CloseIdleConnections()
	resp, err := probe.Get(st.url + "/readyz")
	if err != nil {
		st.close()
		return nil, timing, fmt.Errorf("boot: readiness probe: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.close()
		return nil, timing, fmt.Errorf("boot: /readyz answered %s", resp.Status)
	}
	timing.total = time.Since(start)
	return st, timing, nil
}

// close shuts the listener down and waits for the serve loop to return. The
// snapshot mappings are released only after that, when no handler can
// reach the graphs any more.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		s.httpSrv.Close()
	}
	<-s.served
	for _, l := range s.loads {
		l.Close()
	}
}

// bootRepeated boots the stack n times and keeps the last one serving: the
// set-up time is reported as the median, so a single slow boot does not
// move it.
func bootRepeated(ds []*dataset, n int, traced bool) (*stack, []bootTiming, error) {
	var timings []bootTiming
	var st *stack
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		var t bootTiming
		var err error
		st, t, err = boot(ds, traced)
		if err != nil {
			return nil, nil, err
		}
		timings = append(timings, t)
	}
	return st, timings, nil
}

// handlerTracer wraps the server's handler in a trace run and records, per
// request id, when the handler started and returned.
type handlerTracer struct {
	next  http.Handler
	mu    sync.Mutex
	spans map[string][2]time.Time
}

func (h *handlerTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.spans[id] = [2]time.Time{start, end}
	h.mu.Unlock()
}

// take returns the recorded handler spans and resets the recorder.
func (h *handlerTracer) take() map[string][2]time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.spans
	h.spans = make(map[string][2]time.Time)
	return out
}

// sortedNames returns the dataset names in order.
func sortedNames(ds []*dataset) []string {
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}
