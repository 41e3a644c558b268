// Command perfbench is the repository benchmark. It boots the why-query
// serving stack in-process — snapshot.ReadFile for ldbc and dbpedia,
// core.NewEngine with two workers, server.New with whydbd's flag defaults,
// AddDataset — serves Server.Handler() on a loopback listener, and drives
// it over real HTTP with a closed loop of two clients on two connections.
// Every answer is checked; explain and match payloads are compared
// byte-for-byte with a library oracle on an identically loaded engine.
//
// Run it from the repository root (run.sh builds it inside the checkout):
//
//	bash perfbench/run.sh --workload repeat-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics of
// BENCHMARK.json; --trace 1 runs an untraced and a traced phase, replays
// the explain ladder layer by layer, and reports the per-layer metrics.
// Progress and self-check diagnostics go to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// clients is the closed loop's client count, one connection each.
	clients = 2
	// setupReps is how many times a run boots the stack; setup_s is the
	// median boot.
	setupReps = 21
	// mutateProbe is the number of writes sent after the timed phase of a
	// read-only workload, so every workload reports mutate latency.
	mutateProbe = 64
	// buildDir holds everything the benchmark writes, inside the checkout.
	buildDir = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: repeat-hot, unique-cold or write-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// runState carries what the parts of one run share.
type runState struct {
	workload string
	seed     int64
	dur      time.Duration // one timed phase; a trace run splits --seconds into two
	traced   bool
	ds       []*dataset
	st       *stack
	ctl      *client
	load     []*client
	plan     *workloadPlan
	checks   []string // failed self-checks
	tally    tally
	probe    []sample // the write probe of a read-only workload
	logged   int      // failed answers printed so far
}

// tally counts answers attempted and answered correctly over the whole run.
type tally struct{ attempted, ok int }

func (t *tally) add(ss []sample) {
	for _, s := range ss {
		t.attempted += s.op.answers()
		t.ok += s.ok
	}
}

func (r *runState) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.checks = append(r.checks, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func run(workload string, seed int64, dur time.Duration, trace bool) (*result, error) {
	switch workload {
	case "repeat-hot", "unique-cold", "write-mix":
	default:
		return nil, fmt.Errorf("unknown --workload %q (want repeat-hot, unique-cold or write-mix)", workload)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "perfbench-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runState{workload: workload, seed: seed, dur: dur, traced: trace}
	phases := 1
	if trace {
		// Untraced and traced phase share the run length, so a trace run
		// takes about as long as an end-to-end run.
		phases = 2
		r.dur = max(dur/2, time.Second)
	}
	if r.ds, err = packInputs(dir); err != nil {
		return nil, err
	}
	defer func() {
		for _, d := range r.ds {
			d.libLoad.Close()
		}
	}()
	st, boots, err := bootRepeated(r.ds, setupReps, trace)
	if err != nil {
		return nil, err
	}
	r.st = st
	defer st.close()

	r.ctl = newClient(st.url)
	defer r.ctl.close()
	for i := 0; i < clients; i++ {
		c := newClient(st.url)
		defer c.close()
		r.load = append(r.load, c)
	}

	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "repeat-hot":
		r.plan, err = repeatHot(r.ds, rng)
	case "write-mix":
		r.plan, err = writeMix(r.ds, rng)
	case "unique-cold":
		r.plan, err = uniqueCold(r.ds, rng, r.dur, phases, ladderUnique)
	}
	if err != nil {
		return nil, err
	}

	// Untimed warm-up: one blocking pass over every distinct spec, so plan
	// and count caches are resident before timing (repeat-hot, write-mix).
	warm := runSequential(r.ctl, r.plan.warm)
	r.tally.add(warm)
	for _, s := range warm {
		if s.err != nil {
			r.fail("warm-up: %v", s.err)
			break
		}
	}

	untraced, err := r.phase(0, false)
	if err != nil {
		return nil, err
	}
	var traced *phase
	if r.traced {
		if traced, err = r.phase(1, true); err != nil {
			return nil, err
		}
	}
	writes := r.writes(untraced)
	r.verifySamples(untraced, traced)
	r.selfChecks(untraced, traced)
	var layers map[string]metric
	if r.traced {
		if layers, err = r.layerMetrics(untraced, traced, boots); err != nil {
			return nil, err
		}
	}

	res := &result{Attempted: r.tally.attempted, Failed: r.tally.attempted - r.tally.ok}
	res.Correct = res.Failed == 0 && len(r.checks) == 0
	if r.traced {
		res.Metrics = layers
	} else {
		res.Metrics = endToEnd(untraced, boots, writes, r.tally)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// phase runs timed phase i of the plan.
func (r *runState) phase(i int, traced bool) (*phase, error) {
	if r.st.tracer != nil {
		r.st.tracer.take()
	}
	p, err := runPhase(r.ctl, r.load, r.plan, r.plan.phases[i], r.dur, traced)
	if err != nil {
		return nil, err
	}
	r.tally.add(p.samples)
	r.logErrors(p.samples)
	if p.exhausted {
		r.fail("%s: phase %d ran out of distinct specs after %d ops", r.workload, i, len(p.samples))
	}
	return p, nil
}

// logErrors prints the first few failed answers to standard error.
func (r *runState) logErrors(ss []sample) {
	for _, s := range ss {
		if s.err != nil && r.logged < 5 {
			r.logged++
			fmt.Fprintln(os.Stderr, "perfbench: failed answer:", s.err)
		}
	}
}

// writes returns the timed phase's acknowledged writes. A read-only
// workload has none, so it sends a short untimed write probe after its
// timed phases, and every workload reports mutate latency.
func (r *runState) writes(p *phase) []sample {
	var out []sample
	for _, s := range p.samples {
		if s.op.kind == opMutate && s.ok == 1 {
			out = append(out, s)
		}
	}
	if len(out) > 0 {
		return out
	}
	names := sortedNames(r.ds)
	for i := 0; i < mutateProbe; i++ {
		runtime.GC() // every probe write starts from the same collector state
		s := r.ctl.do(mutateOp(names[i%len(names)]), "")
		r.probe = append(r.probe, s)
		if s.ok == 1 {
			out = append(out, s)
		} else {
			r.fail("write probe: %v", s.err)
		}
	}
	r.tally.add(r.probe)
	return out
}

// endToEnd assembles the end-to-end metrics of the untraced phase. The
// rate and the match and first-event medians are medians over 2-second
// windows; the explain median is taken per spec (see specMedian); the p99
// is taken over the whole phase, the only span with enough samples beyond
// it.
func endToEnd(p *phase, boots []bootTiming, writes []sample, t tally) map[string]metric {
	// latencies picks one latency per answer from the samples of a kind.
	latencies := func(ss []sample, pick func(s sample) []float64) []float64 {
		var out []float64
		for _, s := range ss {
			out = append(out, pick(s)...)
		}
		return out
	}
	explainLat := func(s sample) []float64 {
		switch s.op.kind {
		case opExplain, opStream:
			return []float64{ms(s.lat)}
		case opBatch:
			lat := make([]float64, s.op.answers())
			for i := range lat {
				lat[i] = ms(s.lat) // a batch item takes its batch's latency
			}
			return lat
		}
		return nil
	}
	matchLat := func(s sample) []float64 {
		if s.op.kind == opMatch {
			return []float64{ms(s.lat)}
		}
		return nil
	}
	ttfeLat := func(s sample) []float64 {
		if s.ttfe > 0 {
			return []float64{ms(s.ttfe)}
		}
		return nil
	}
	median := func(pick func(s sample) []float64) float64 {
		return p.windowed(func(ss []sample, _ time.Duration) (float64, bool) {
			xs := latencies(ss, pick)
			return quantile(xs, 0.5), len(xs) > 0
		})
	}
	// specMedian is the median over distinct specs of each spec's median
	// latency: a spec counts once however often it was sent, and all batch
	// items form one spec. Explain latencies cluster by spec, transport and
	// batching, and the pooled median fell in a gap between clusters: it
	// swung between 2.9 and 4.2 ms from run to run on repeat-hot.
	specMedian := func(pick func(s sample) []float64) float64 {
		groups := map[string][]float64{}
		for _, s := range p.samples {
			if xs := pick(s); len(xs) > 0 {
				key := "batch"
				if s.op.kind != opBatch {
					key = fmt.Sprint(s.op.kind) + string(s.op.body)
				}
				groups[key] = append(groups[key], xs...)
			}
		}
		var meds []float64
		for _, xs := range groups {
			meds = append(meds, quantile(xs, 0.5))
		}
		return quantile(meds, 0.5)
	}
	var setup []float64
	for _, b := range boots {
		setup = append(setup, b.total.Seconds())
	}
	out := map[string]metric{
		"setup_s": {quantile(setup, 0.5), "s"},
		"answers_per_s": {p.windowed(func(ss []sample, length time.Duration) (float64, bool) {
			ok := 0
			for _, s := range ss {
				ok += s.ok
			}
			return float64(ok) / length.Seconds(), true
		}), "1/s"},
		"explain_p50_ms": {specMedian(explainLat), "ms"},
		"explain_p99_ms": {quantile(latencies(p.samples, explainLat), 0.99), "ms"},
		"match_p50_ms":   {median(matchLat), "ms"},
		"ttfe_p50_ms":    {median(ttfeLat), "ms"},
		"success_frac":   {float64(t.ok) / float64(t.attempted), "ratio"},
		"heap_peak_mb":   {float64(p.heapPeak) / (1 << 20), "MB"},
	}
	// The two datasets' writes cost differently and alternate, so the
	// median of the pooled latencies would fall in the gap between them:
	// report the mean of the per-dataset medians.
	perDataset := map[string][]float64{}
	for _, s := range writes {
		perDataset[s.op.dataset] = append(perDataset[s.op.dataset], ms(s.lat))
	}
	mutate := 0.0
	for _, lat := range perDataset {
		mutate += quantile(lat, 0.5) / float64(len(perDataset))
	}
	out["mutate_p50_ms"] = metric{mutate, "ms"}
	return out
}

// writeSpans writes the run's spans as JSON under .bench_build.
func writeSpans(workload string, seed int64, spans []span) error {
	dir := filepath.Join(buildDir, "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), blob, 0o644)
}
