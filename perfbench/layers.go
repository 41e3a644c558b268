package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/query"
	"repro/internal/relax"
	"repro/internal/search"
	"repro/internal/wire"
)

const (
	// ladderUnique is how many never-served unique-cold specs the trace run
	// replays layer by layer.
	ladderUnique = 32
	// mutateReplay is the number of clone → apply → freeze → NewEngine
	// rounds replayed per dataset in a trace run.
	mutateReplay = 8
	// ladderTolerance bounds |replayed core layers / core.explain_ms − 1|;
	// httpTolerance bounds |(handler p50 + HTTP self p50) / round-trip p50 − 1|.
	ladderTolerance = 0.25
	httpTolerance   = 0.25
)

// runEpoch anchors span timestamps.
var runEpoch = time.Now()

// span is one traced interval; spans of one request share Trace.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

type spanLog struct{ spans []span }

func (l *spanLog) add(parent int, trace, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(runEpoch).Nanoseconds(), EndNs: end.Sub(runEpoch).Nanoseconds()})
	return id
}

// ladderTimes splits one explain into the layers core.ExplainCtx calls, in
// its order.
type ladderTimes struct {
	decode, count, mcs, relax, modtree, find, syntactic, resultDist, encode time.Duration
}

// core is the part of the ladder ExplainCtx itself runs (no wire layer).
func (t ladderTimes) core() time.Duration {
	return t.count + t.mcs + t.relax + t.modtree + t.find + t.syntactic + t.resultDist
}

func (t *ladderTimes) addTo(o ladderTimes) {
	t.decode += o.decode
	t.count += o.count
	t.mcs += o.mcs
	t.relax += o.relax
	t.modtree += o.modtree
	t.find += o.find
	t.syntactic += o.syntactic
	t.resultDist += o.resultDist
	t.encode += o.encode
}

// ladderEngine is an engine plus the per-call search state core pools:
// the ladder calls the layers directly on it.
type ladderEngine struct {
	eng *core.Engine
	rw  *relax.Rewriter
	mt  *modtree.Searcher
	mc  *match.Ctx
}

func newLadderEngine(g *graph.Graph) *ladderEngine {
	eng := core.NewEngine(g)
	eng.SetWorkers(engineWorkers)
	m := eng.Matcher()
	return &ladderEngine{eng: eng, rw: relax.New(m, eng.Stats()), mt: modtree.New(m, eng.Stats()), mc: m.NewContext()}
}

// explainRequest decodes an explain body into the query and the options
// the server hands ExplainCtx.
func explainRequest(ds *dataset, body []byte) (*query.Query, core.Options, error) {
	var req wire.ExplainRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, core.Options{}, err
	}
	q, err := ds.resolve(req.Builtin, req.Failing, req.Query)
	if err != nil {
		return nil, core.Options{}, err
	}
	return q, core.Options{Expected: metrics.Interval{Lower: req.Lower, Upper: req.Upper}, Budget: req.Budget}, nil
}

// ladder answers one explain body by calling the layers ExplainCtx calls,
// in its order and with its defaults, timing each; the payload must equal
// the server's byte for byte.
func (l *ladderEngine) ladder(ds *dataset, body []byte) ([]byte, ladderTimes, error) {
	var lt ladderTimes
	t := time.Now()
	q, opts, err := explainRequest(ds, body)
	if err != nil {
		return nil, lt, err
	}
	lt.decode = time.Since(t)
	if opts.Expected == (metrics.Interval{}) {
		opts.Expected = metrics.AtLeastOne
	}
	maxRewritings, budget, sample := 3, opts.Budget, 100
	if budget == 0 {
		budget = 300
	}
	m, st := l.eng.Matcher(), l.eng.Stats()
	ctrl := search.Control{MaxExecuted: budget, Workers: l.eng.Workers()}

	countCap := 0
	if opts.Expected.Upper > 0 {
		countCap = opts.Expected.Upper * 4
	}
	t = time.Now()
	card := m.CountCtx(l.mc, q, countCap)
	lt.count = time.Since(t)
	rep := &core.Report{Problem: opts.Expected.Classify(card), Cardinality: card, Expected: opts.Expected}
	if rep.Problem != metrics.Satisfied {
		t = time.Now()
		sub := mcs.BoundedMCS(m, st, q, opts.Expected, mcs.Options{Control: ctrl, UseWCC: true})
		lt.mcs = time.Since(t)
		rep.Subgraph = &sub
		rep.FineGrained = rep.Problem != metrics.WhyEmpty
		var cands []core.Rewriting
		if rep.FineGrained {
			t = time.Now()
			res := l.mt.TraverseSearchTree(q, modtree.Options{Control: ctrl, Goal: opts.Expected, Domain: l.eng.Domain()})
			lt.modtree = time.Since(t)
			if len(res.Best.Ops) > 0 {
				cands = append(cands, core.Rewriting{Query: res.Best.Query, Ops: res.Best.Ops, Cardinality: res.Best.Cardinality})
			}
			rep.Executed, rep.Trace = res.Executed, append([]int(nil), res.Trace...)
		} else {
			t = time.Now()
			out := l.rw.Rewrite(q, relax.Options{Control: ctrl, Goal: opts.Expected, MaxSolutions: maxRewritings, Priority: relax.PriorityCombined})
			lt.relax = time.Since(t)
			for _, s := range out.Solutions {
				cands = append(cands, core.Rewriting{Query: s.Query, Ops: s.Ops, Cardinality: s.Cardinality})
			}
			rep.Executed, rep.Trace = out.Executed, append([]int(nil), out.Trace...)
		}
		t = time.Now()
		orig := m.FindCtx(l.mc, q, match.Options{Limit: sample})
		lt.find += time.Since(t)
		for i := range cands {
			c := &cands[i]
			t = time.Now()
			c.Syntactic = metrics.SyntacticDistance(q, c.Query)
			lt.syntactic += time.Since(t)
			c.CardinalityDistance = opts.Expected.Distance(c.Cardinality)
			t = time.Now()
			res := m.FindCtx(l.mc, c.Query, match.Options{Limit: sample})
			lt.find += time.Since(t)
			t = time.Now()
			c.ResultDistance = metrics.ResultSetDistance(orig, res)
			lt.resultDist += time.Since(t)
		}
		sortRewritings(cands)
		if len(cands) > maxRewritings {
			cands = cands[:maxRewritings]
		}
		rep.Rewritings = cands
	}
	t = time.Now()
	blob, err := json.Marshal(wire.FromReport(rep))
	lt.encode = time.Since(t)
	return blob, lt, err
}

// sortRewritings is core's ranking: cardinality distance, then syntactic,
// then result distance, stable.
func sortRewritings(rs []core.Rewriting) {
	less := func(a, b core.Rewriting) bool {
		if a.CardinalityDistance != b.CardinalityDistance {
			return a.CardinalityDistance < b.CardinalityDistance
		}
		if a.Syntactic != b.Syntactic {
			return a.Syntactic < b.Syntactic
		}
		return a.ResultDistance < b.ResultDistance
	}
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// ladderResult aggregates a replay.
type ladderResult struct {
	n        int
	times    ladderTimes
	explain  time.Duration // core.ExplainCtx on the twin engine
	compile  time.Duration
	compiles int
	matched  int
}

// replayLadder replays every ladder spec on engine A layer by layer and on
// a twin engine B through core.ExplainCtx. Both engines see the same calls
// in the same order, so their caches are in the same state at every spec:
// warm (after one untimed pass) for repeat-hot, fresh per round for the
// cold workloads.
func replayLadder(plan *workloadPlan, ds []*dataset, spans *spanLog) (ladderResult, error) {
	var res ladderResult
	type twin struct{ a, b *ladderEngine }
	var engines map[*dataset]twin
	fresh := func() {
		engines = make(map[*dataset]twin)
		for _, d := range ds {
			g := d.lib.Graph()
			engines[d] = twin{newLadderEngine(g), newLadderEngine(g)}
		}
	}
	for rep := 0; rep < plan.ladderReps; rep++ {
		if rep == 0 || plan.coldLadder {
			fresh()
		}
		if rep == 0 && !plan.coldLadder {
			for _, s := range plan.ladder {
				q, opts, err := explainRequest(s.ds, s.body)
				if err != nil {
					return res, err
				}
				for _, e := range []*ladderEngine{engines[s.ds].a, engines[s.ds].b} {
					if _, err := e.eng.ExplainCtx(context.Background(), q, opts); err != nil {
						return res, err
					}
				}
			}
		}
		for i, s := range plan.ladder {
			tw := engines[s.ds]
			trace := fmt.Sprintf("ladder-%d-%d", rep, i)
			runA := func() error {
				start := time.Now()
				blob, lt, err := tw.a.ladder(s.ds, s.body)
				if err != nil {
					return err
				}
				root := spans.add(0, trace, "ladder", start, time.Now())
				// find, syntactic and result distance alternate per rewriting;
				// each layer's summed time is laid out end to end under the root.
				at := start
				for _, l := range []struct {
					name string
					d    time.Duration
				}{{"wire.decode", lt.decode}, {"match.count", lt.count}, {"mcs.search", lt.mcs}, {"relax.search", lt.relax},
					{"modtree.search", lt.modtree}, {"match.find", lt.find}, {"metrics.syntactic", lt.syntactic},
					{"metrics.result_distance", lt.resultDist}, {"wire.encode", lt.encode}} {
					if l.d > 0 {
						spans.add(root, trace, l.name, at, at.Add(l.d))
						at = at.Add(l.d)
					}
				}
				res.times.addTo(lt)
				if bytes.Equal(blob, s.want) {
					res.matched++
				}
				return nil
			}
			runB := func() error {
				q, opts, err := explainRequest(s.ds, s.body)
				if err != nil {
					return err
				}
				start := time.Now()
				_, err = tw.b.eng.ExplainCtx(context.Background(), q, opts)
				end := time.Now()
				spans.add(0, trace, "core.explain", start, end)
				res.explain += end.Sub(start)
				return err
			}
			first, second := runA, runB
			if i%2 == 1 {
				first, second = runB, runA
			}
			if err := first(); err != nil {
				return res, err
			}
			if err := second(); err != nil {
				return res, err
			}
			res.n++
		}
	}
	// Matcher.Compile on a fresh matcher: no plan or candidate cache.
	for _, s := range plan.ladder {
		q, _, err := explainRequest(s.ds, s.body)
		if err != nil {
			return res, err
		}
		m := match.New(s.ds.lib.Graph())
		t := time.Now()
		m.Compile(q)
		res.compile += time.Since(t)
		res.compiles++
	}
	return res, nil
}

// writeReplay times the mutation path outside the server: clone, apply a
// perfbench batch, rebuild the indexes and freeze, build the engine.
type writeReplay struct {
	clone, freeze, engine time.Duration
	n                     int
}

func replayWrites(ds []*dataset) writeReplay {
	var w writeReplay
	attrs := graph.Attrs{"type": graph.S("loadtest")}
	for _, d := range ds {
		g := d.lib.Graph()
		keys := g.IndexedKeys()
		for i := 0; i < mutateReplay; i++ {
			t := time.Now()
			c := g.Clone()
			w.clone += time.Since(t)
			a, b := c.AddVertex(attrs), c.AddVertex(attrs)
			c.AddEdge(a, b, "loadtest", nil)
			t = time.Now()
			if len(keys) > 0 {
				c.BuildVertexIndex(keys...)
			}
			c.Freeze()
			w.freeze += time.Since(t)
			t = time.Now()
			e := core.NewEngine(c)
			e.SetWorkers(engineWorkers)
			w.engine += time.Since(t)
			w.n++
			g = c
		}
	}
	return w
}

// layerMetrics assembles the per-layer metrics of a trace run from the
// traced phase, the replays, and the untraced phase (tracing overhead).
func (r *runState) layerMetrics(untraced, traced *phase, boots []bootTiming) (map[string]metric, error) {
	spans := &spanLog{}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// HTTP and handler: join client round trips with handler spans by id.
	handlerSpans := r.st.tracer.take()
	var rt, hd, self []float64
	nested, joined := 0, 0
	for _, s := range traced.samples {
		if s.op.kind == opStream || s.id == "" || s.err != nil {
			continue
		}
		h, ok := handlerSpans[s.id]
		if !ok {
			continue
		}
		joined++
		root := spans.add(0, s.id, "http.roundtrip", s.start, s.end)
		spans.add(root, s.id, "server.handler", h[0], h[1])
		if !h[0].Before(s.start) && !h[1].After(s.end) {
			nested++
		}
		round, handler := ms(s.end.Sub(s.start)), ms(h[1].Sub(h[0]))
		rt, hd, self = append(rt, round), append(hd, handler), append(self, round-handler)
	}
	if joined == 0 {
		return nil, fmt.Errorf("trace: no handler span joined a request")
	}
	rtP50, hdP50, selfP50 := quantile(rt, 0.5), quantile(hd, 0.5), quantile(self, 0.5)
	put("http.roundtrip_ms", rtP50, "ms")
	put("server.handler_ms", hdP50, "ms")
	put("http.self_ms", selfP50, "ms")
	httpSum := (hdP50 + selfP50) / rtP50
	put("trace.http_sum_frac", httpSum, "ratio")
	if httpSum < 1-httpTolerance || httpSum > 1+httpTolerance {
		r.fail("trace: handler p50 + HTTP self p50 is %.3f of round-trip p50 (tolerance %.2f)", httpSum, httpTolerance)
	}
	if nested != joined {
		r.fail("trace: %d of %d handler spans fall outside their round trip", joined-nested, joined)
	}

	// Explain ladder.
	lr, err := replayLadder(r.plan, r.ds, spans)
	if err != nil {
		return nil, err
	}
	n := float64(lr.n)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	msPer := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / n }
	put("wire.decode_us", us(lr.times.decode), "us")
	put("match.count_us", us(lr.times.count), "us")
	put("mcs.search_ms", msPer(lr.times.mcs), "ms")
	put("relax.search_ms", msPer(lr.times.relax), "ms")
	put("modtree.search_ms", msPer(lr.times.modtree), "ms")
	put("match.find_us", us(lr.times.find), "us")
	put("metrics.result_distance_us", us(lr.times.resultDist), "us")
	put("metrics.syntactic_us", us(lr.times.syntactic), "us")
	put("wire.encode_us", us(lr.times.encode), "us")
	put("core.explain_ms", msPer(lr.explain), "ms")
	put("core.self_ms", msPer(lr.explain-lr.times.core()), "ms")
	put("match.compile_us", float64(lr.compile.Nanoseconds())/1e3/float64(lr.compiles), "us")
	ladderSum := float64(lr.times.core()) / float64(lr.explain)
	put("trace.ladder_sum_frac", ladderSum, "ratio")
	put("trace.ladder_payload_match", float64(lr.matched)/n, "ratio")
	if ladderSum < 1-ladderTolerance || ladderSum > 1+ladderTolerance {
		r.fail("trace: replayed layers sum to %.3f of core.explain_ms (tolerance %.2f)", ladderSum, ladderTolerance)
	}
	if lr.matched != lr.n {
		r.fail("trace: %d of %d replayed ladders answered other bytes than the server", lr.n-lr.matched, lr.n)
	}

	// Caches and search kernel, over the traced phase.
	c := traced.log.delta()
	answers, explains := 0.0, 0.0
	for _, s := range traced.samples {
		answers += float64(s.ok)
		if s.op.kind != opMatch && s.op.kind != opMutate {
			explains += float64(s.ok)
		}
	}
	put("match.plan_hit_rate", c.plan.rate(), "ratio")
	put("match.count_hit_rate", c.count.rate(), "ratio")
	put("match.cand_hit_rate", c.cand.rate(), "ratio")
	put("stats.card_hit_rate", c.card.rate(), "ratio")
	put("match.plan_misses_per_answer", ratio(c.plan.misses, answers), "count")
	put("match.count_misses_per_answer", ratio(c.count.misses, answers), "count")
	put("match.coalesce_shared", c.coalesceShared, "count")
	put("search.executions_per_explain", ratio(c.executions, explains), "count")
	put("search.dedup_hits_per_explain", ratio(c.dedupHits, explains), "count")
	put("search.spec_useful_frac", 1-ratio(c.specWaste, c.speculated), "ratio")
	p0, p1 := traced.stats0.Speculation, traced.stats1.Speculation
	granted, denied := float64(p1.Granted-p0.Granted), float64(p1.Denied-p0.Denied)
	put("search.pool_denied_frac", ratio(denied, granted+denied), "ratio")

	// Writes and set-up.
	w := replayWrites(r.ds)
	put("graph.clone_ms", ms(w.clone)/float64(w.n), "ms")
	put("graph.freeze_ms", ms(w.freeze)/float64(w.n), "ms")
	put("core.new_engine_ms", ms(w.engine)/float64(w.n), "ms")
	var refreeze []float64
	for _, s := range append(append([]sample(nil), traced.samples...), r.probe...) {
		if s.mut != nil {
			refreeze = append(refreeze, s.mut.RefreezeMs)
		}
	}
	put("server.refreeze_ms", quantile(refreeze, 0.5), "ms")
	put("server.epochs", c.epochs, "count")
	var loads []float64
	for _, b := range boots {
		loads = append(loads, ms(b.snapLoad))
	}
	put("snapshot.load_ms", quantile(loads, 0.5), "ms")

	// Guards, since boot.
	g := traced.stats1.Resilience
	put("server.shed", float64(g.Shed), "count")
	put("server.degraded", float64(g.DegradedServed), "count")
	put("server.queue_full", float64(g.QueueFull), "count")
	put("server.expired", float64(g.ExpiredQueued+g.ExpiredRunning), "count")

	// Runtime, over the traced phase (clients included).
	put("go.alloc_bytes_per_answer", ratio(traced.rt.allocBytes, answers), "B")
	put("go.allocs_per_answer", ratio(traced.rt.allocObjects, answers), "count")
	put("go.gc_cpu_frac", ratio(traced.rt.gcCPU, traced.rt.totalCPU), "ratio")

	// Tracing overhead: the same workload untraced and traced.
	un := answerRate(untraced)
	tr := answerRate(traced)
	put("trace.untraced_answers_per_s", un, "1/s")
	put("trace.traced_answers_per_s", tr, "1/s")
	put("trace.overhead_frac", 1-tr/un, "ratio")
	put("error_frac", 1-float64(r.tally.ok)/float64(r.tally.attempted), "ratio")

	if err := writeSpans(r.workload, r.seed, spans.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return out, nil
}

func answerRate(p *phase) float64 {
	ok := 0
	for _, s := range p.samples {
		ok += s.ok
	}
	return float64(ok) / p.elapsed.Seconds()
}
