package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	samples   []sample
	start     time.Time
	dur       time.Duration // the timed length; ops in flight at its end still complete
	elapsed   time.Duration
	exhausted bool
	heapPeak  uint64
	rt        runtimeDelta
	stats0    *wire.StatsResponse
	stats1    *wire.StatsResponse
	log       *counterLog
}

// runPhase drives ops through the clients for dur: each client sends its
// next op only after the previous answer arrived (closed loop). In a traced
// phase every request carries an X-Request-Id the handler tracer records.
func runPhase(ctl *client, clients []*client, plan *workloadPlan, ops []*op, dur time.Duration, traced bool) (*phase, error) {
	runtime.GC()
	st0, err := ctl.getStats()
	if err != nil {
		return nil, err
	}
	p := &phase{stats0: st0, log: newCounterLog(st0)}
	stopHeap := sampleHeap(&p.heapPeak)
	rt0 := readRuntime()
	var next atomic.Int64
	var exhausted atomic.Bool
	var idSeq atomic.Int64
	per := make([][]sample, len(clients))
	errs := make([]error, len(clients))
	start := time.Now()
	p.start, p.dur = start, dur
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) && !plan.cyclic {
					exhausted.Store(true)
					return
				}
				o := ops[i%int64(len(ops))]
				if o.kind == opMutate {
					// Per-dataset counters live on the epoch's engine and reset
					// when the mutate publishes the next one: record them first.
					st, err := c.getStats()
					if err != nil {
						errs[ci] = err
						return
					}
					p.log.add(st)
				}
				id := ""
				if traced {
					id = fmt.Sprintf("pb%d", idSeq.Add(1))
				}
				per[ci] = append(per[ci], c.do(o, id))
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.rt = readRuntime().sub(rt0)
	stopHeap()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	p.exhausted = exhausted.Load()
	if p.stats1, err = ctl.getStats(); err != nil {
		return nil, err
	}
	p.log.add(p.stats1)
	return p, nil
}

// runSequential sends ops one after another on one client, untimed.
func runSequential(c *client, ops []*op) []sample {
	out := make([]sample, 0, len(ops))
	for _, o := range ops {
		out = append(out, c.do(o, ""))
	}
	return out
}

// sampleHeap records the peak live heap (runtime/metrics
// /gc/heap/live:bytes) every 5ms until the returned stop function is
// called; stop waits for the sampler to exit.
func sampleHeap(peak *uint64) func() {
	done := make(chan struct{})
	exited := make(chan struct{})
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > *peak {
			*peak = v
		}
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-done:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// runtimeDelta is the change of the Go runtime's allocation and CPU
// counters over a phase. The benchmark's clients run in the same process,
// so these include client-side work.
type runtimeDelta struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return runtimeDelta{val(0), val(1), val(2), val(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// counterLog accumulates per-dataset /v1/stats counters across mutation
// epochs. A dataset's cache and kernel counters belong to its current
// epoch's engine and restart from zero when a mutate publishes the next
// one, so the log keeps the last snapshot of every (dataset, epoch) and a
// phase's delta is the sum over epochs minus the phase-start snapshot.
type counterLog struct {
	mu   sync.Mutex
	base map[epochKey]wire.DatasetStats
	last map[epochKey]wire.DatasetStats
}

type epochKey struct {
	dataset string
	epoch   int64
}

func newCounterLog(st *wire.StatsResponse) *counterLog {
	l := &counterLog{base: make(map[epochKey]wire.DatasetStats), last: make(map[epochKey]wire.DatasetStats)}
	for name, ds := range st.Datasets {
		l.base[epochKey{name, ds.Epoch}] = ds
	}
	l.add(st)
	return l
}

// activity orders snapshots of one epoch: counters only grow within it.
func activity(ds wire.DatasetStats) int64 {
	n := int64(ds.PlanCache.Hits + ds.PlanCache.Misses + ds.CountCache.Hits + ds.CountCache.Misses +
		ds.CandCache.Hits + ds.CandCache.Misses + ds.StatsCache.Hits + ds.StatsCache.Misses)
	for _, k := range ds.Kernel {
		n += k.Executions + k.DedupHits
	}
	return n
}

func (l *counterLog) add(st *wire.StatsResponse) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, ds := range st.Datasets {
		k := epochKey{name, ds.Epoch}
		if prev, ok := l.last[k]; !ok || activity(ds) >= activity(prev) {
			l.last[k] = ds
		}
	}
}

// cacheDelta is a hit/miss pair.
type cacheDelta struct{ hits, misses float64 }

func (c cacheDelta) rate() float64 { return ratio(c.hits, c.hits+c.misses) }

// phaseCounters is the summed per-dataset counter delta of a phase.
type phaseCounters struct {
	plan, count, cand, card cacheDelta
	coalesceShared          float64
	executions, dedupHits   float64
	speculated, specWaste   float64
	epochs                  float64
}

func (l *counterLog) delta() phaseCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	var c phaseCounters
	acc := func(ds wire.DatasetStats, sign float64) {
		c.plan.hits += sign * float64(ds.PlanCache.Hits)
		c.plan.misses += sign * float64(ds.PlanCache.Misses)
		c.count.hits += sign * float64(ds.CountCache.Hits)
		c.count.misses += sign * float64(ds.CountCache.Misses)
		c.cand.hits += sign * float64(ds.CandCache.Hits)
		c.cand.misses += sign * float64(ds.CandCache.Misses)
		c.card.hits += sign * float64(ds.StatsCache.Hits)
		c.card.misses += sign * float64(ds.StatsCache.Misses)
		c.coalesceShared += sign * float64(ds.Coalescing.Shared)
		for _, k := range ds.Kernel {
			c.executions += sign * float64(k.Executions)
			c.dedupHits += sign * float64(k.DedupHits)
			c.speculated += sign * float64(k.Speculated)
			c.specWaste += sign * float64(k.SpecWaste)
		}
	}
	maxEpoch := map[string]int64{}
	baseEpoch := map[string]int64{}
	for k, ds := range l.last {
		acc(ds, 1)
		if k.epoch > maxEpoch[k.dataset] {
			maxEpoch[k.dataset] = k.epoch
		}
	}
	for k, ds := range l.base {
		acc(ds, -1)
		baseEpoch[k.dataset] = k.epoch
	}
	for name, e := range maxEpoch {
		c.epochs += float64(e - baseEpoch[name])
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// window is the length of the slices a phase is cut into for windowed
// medians.
const window = 2 * time.Second

// windowed cuts the phase into windows by answer completion time, applies
// f to the samples of each window, and returns the median over windows
// that gave a value. A burst of interference from outside the process
// then moves at most a few windows, not the reported figure.
func (p *phase) windowed(f func(ss []sample, length time.Duration) (float64, bool)) float64 {
	n := int(p.dur / window)
	if n < 1 {
		n = 1
	}
	length := p.dur / time.Duration(n)
	buckets := make([][]sample, n)
	for _, s := range p.samples {
		w := int(s.end.Sub(p.start) / length)
		if w >= 0 && w < n {
			buckets[w] = append(buckets[w], s)
		}
	}
	var vals []float64
	for _, b := range buckets {
		if v, ok := f(b, length); ok {
			vals = append(vals, v)
		}
	}
	return quantile(vals, 0.5)
}
