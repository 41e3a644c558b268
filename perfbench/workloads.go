package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	// explainBudget is the candidate budget of every explain the benchmark
	// sends.
	explainBudget = 150
	// findLimit bounds every find-mode match.
	findLimit = 10
	// batchSize and batchDistinct shape repeat-hot's batches: 8 items, each
	// of 4 distinct specs sent twice.
	batchSize     = 8
	batchDistinct = 4
	// streamEvery sends every n-th explain over SSE.
	streamEvery = 4
	// mutateEvery places one write in every block of this many write-mix
	// operations.
	mutateEvery = 13
	// uniqueCountCap caps the generation-time count of a unique-cold
	// variant and the count of its count-mode match; variants that reach it
	// are left out.
	uniqueCountCap = 100000
	// uniquePerSecond sizes unique-cold's spec pool per timed second; the
	// run fails rather than repeat a spec when the pool runs out.
	uniquePerSecond = 400
	// One in uniqueSampleEvery unique-cold ops keeps its payload for a
	// byte-for-byte comparison with the library oracle after the phase.
	uniqueSampleEvery = 16
)

// workloadPlan is a workload's traffic: untimed warm-up ops, and per timed
// phase the op sequence the clients consume. A cyclic sequence is replayed
// from the start when exhausted; a non-cyclic one (unique-cold) never
// repeats an op.
type workloadPlan struct {
	warm   []*op
	phases [][]*op
	cyclic bool
	// ladder lists the explain request bodies (with their dataset) the
	// trace run replays layer by layer; coldLadder makes the replay start
	// from cold engines.
	ladder     []ladderSpec
	coldLadder bool
	ladderReps int
}

type ladderSpec struct {
	ds   *dataset
	body []byte
	want []byte
}

// oracle computes the payload a correct server answers to an explain
// request body: the library engine runs the same ExplainCtx the server
// runs, and wire.FromReport encodes it.
func explainOracle(ds *dataset, body []byte) ([]byte, error) {
	var req wire.ExplainRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	q, err := ds.resolve(req.Builtin, req.Failing, req.Query)
	if err != nil {
		return nil, err
	}
	rep, err := ds.lib.ExplainCtx(context.Background(), q, core.Options{
		Expected:     metrics.Interval{Lower: req.Lower, Upper: req.Upper},
		Budget:       req.Budget,
		ResultSample: req.ResultSample,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(wire.FromReport(rep))
}

// matchOracle computes the payload of a /v1/match request body, with the
// server's default caps.
func matchOracle(ds *dataset, body []byte) ([]byte, error) {
	var req wire.MatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	q, err := ds.resolve(req.Builtin, req.Failing, req.Query)
	if err != nil {
		return nil, err
	}
	m := ds.lib.Matcher()
	if req.Mode == "find" {
		results := m.Find(q, match.Options{Limit: req.Limit})
		match.SortResults(results)
		resp := wire.MatchResponse{Count: len(results)}
		for _, r := range results {
			resp.Results = append(resp.Results, wire.FromResult(r))
		}
		return json.Marshal(resp)
	}
	countCap := req.CountCap
	if countCap == 0 {
		countCap = 10000000
	}
	return json.Marshal(wire.MatchResponse{Count: m.Count(q, countCap)})
}

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request types always marshal
	}
	return blob
}

// builtinCorpus is the repeat-hot corpus: per dataset and builtin, a
// why-empty explain (failing variant, lower 1), a why-so-many explain
// (lower 1, upper 3), a count match and a find match, each with its oracle
// payload.
type builtinCorpus struct {
	explains []*op
	matches  []*op
}

func newBuiltinCorpus(ds []*dataset) (*builtinCorpus, error) {
	c := &builtinCorpus{}
	for _, d := range ds {
		for _, nq := range d.builtins {
			for _, req := range []wire.ExplainRequest{
				{Dataset: d.name, Builtin: nq.Name, Failing: true, Lower: 1, Budget: explainBudget},
				{Dataset: d.name, Builtin: nq.Name, Lower: 1, Upper: 3, Budget: explainBudget},
			} {
				body := mustJSON(req)
				want, err := explainOracle(d, body)
				if err != nil {
					return nil, fmt.Errorf("oracle %s %s: %w", d.name, nq.Name, err)
				}
				c.explains = append(c.explains, &op{kind: opExplain, body: body, dataset: d.name, want: [][]byte{want}})
			}
			for _, req := range []wire.MatchRequest{
				{Dataset: d.name, Builtin: nq.Name},
				{Dataset: d.name, Builtin: nq.Name, Mode: "find", Limit: findLimit},
			} {
				body := mustJSON(req)
				want, err := matchOracle(d, body)
				if err != nil {
					return nil, fmt.Errorf("oracle %s %s: %w", d.name, nq.Name, err)
				}
				c.matches = append(c.matches, &op{kind: opMatch, body: body, dataset: d.name, want: [][]byte{want}})
			}
		}
	}
	return c, nil
}

// distinct lists every distinct explain and match once: the warm-up pass.
func (c *builtinCorpus) distinct() []*op {
	return append(append([]*op(nil), c.explains...), c.matches...)
}

// decks returns deckCount shuffled decks, each every distinct spec once
// (plus one batch when batched); every 4th explain goes over SSE.
func (c *builtinCorpus) decks(rng *rand.Rand, batched bool) []*op {
	var seq []*op
	explains := 0
	for d := 0; d < deckCount; d++ {
		deck := c.distinct()
		if batched {
			deck = append(deck, newBatch(c.explains, rng))
		}
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, o := range deck {
			if o.kind == opExplain {
				explains++
				if explains%streamEvery == 0 {
					o = streamed(o)
				}
			}
			seq = append(seq, o)
		}
	}
	return seq
}

// ladder lists the corpus' explains for the layer replay.
func (c *builtinCorpus) ladder(ds []*dataset) []ladderSpec {
	var out []ladderSpec
	for _, o := range c.explains {
		out = append(out, ladderSpec{ds: byName(ds, o.dataset), body: o.body, want: o.want[0]})
	}
	return out
}

// streamed returns the SSE form of a blocking explain op.
func streamed(o *op) *op {
	s := *o
	s.kind = opStream
	return &s
}

// deckCount is how many decks a cyclic workload's sequence holds before it
// repeats: enough that a run does not cycle, so the pairings of concurrent
// requests differ from deck to deck instead of repeating a short pattern.
const deckCount = 1024

// repeatHot shuffles decks of the corpus: every distinct explain and match
// once, plus one batch of 8 items (4 distinct specs, each twice); every 4th
// explain goes over SSE. A batch item takes its batch's latency, so one
// batch per deck keeps batch items a third of the explain answers and the
// explain median among single explains.
func repeatHot(ds []*dataset, rng *rand.Rand) (*workloadPlan, error) {
	c, err := newBuiltinCorpus(ds)
	if err != nil {
		return nil, err
	}
	seq := c.decks(rng, true)
	return &workloadPlan{warm: c.distinct(), phases: [][]*op{seq, seq}, cyclic: true, ladder: c.ladder(ds), ladderReps: 3}, nil
}

// newBatch draws batchDistinct distinct explains and sends each twice in
// one /v1/explain/batch request.
func newBatch(explains []*op, rng *rand.Rand) *op {
	var items []wire.ExplainRequest
	var want [][]byte
	for _, i := range rng.Perm(len(explains))[:batchDistinct] {
		var req wire.ExplainRequest
		if err := json.Unmarshal(explains[i].body, &req); err != nil {
			panic(err) // bodies were marshaled from ExplainRequest above
		}
		for k := 0; k < batchSize/batchDistinct; k++ {
			items = append(items, req)
			want = append(want, explains[i].want[0])
		}
	}
	perm := rng.Perm(len(items))
	shufItems := make([]wire.ExplainRequest, len(items))
	shufWant := make([][]byte, len(items))
	for i, p := range perm {
		shufItems[i], shufWant[i] = items[p], want[p]
	}
	return &op{kind: opBatch, body: mustJSON(wire.BatchExplainRequest{Items: shufItems}), want: shufWant}
}

// writeMix interleaves repeat-hot's single explains (every 4th over SSE)
// and matches with one self-contained mutate batch per block of 13 ops, at
// a seeded position in the block, alternating the datasets.
func writeMix(ds []*dataset, rng *rand.Rand) (*workloadPlan, error) {
	c, err := newBuiltinCorpus(ds)
	if err != nil {
		return nil, err
	}
	names := sortedNames(ds)
	reads := c.decks(rng, false)
	mutates := make([]*op, len(names))
	for i, name := range names {
		mutates[i] = mutateOp(name)
	}
	var seq []*op
	block := 0
	first := rng.Intn(len(names))
	for len(reads) > 0 {
		n := mutateEvery - 1
		if n > len(reads) {
			n = len(reads)
		}
		at := rng.Intn(n + 1)
		seq = append(seq, reads[:at]...)
		seq = append(seq, mutates[(first+block)%len(names)])
		seq = append(seq, reads[at:n]...)
		reads = reads[n:]
		block++
	}
	return &workloadPlan{warm: c.distinct(), phases: [][]*op{seq, seq}, cyclic: true, ladder: c.ladder(ds), coldLadder: true, ladderReps: 3}, nil
}

// mutateOp is a self-contained write: two fresh "loadtest" vertices joined
// by one "loadtest" edge through batch-local references. It names no
// existing element and matches no builtin query.
func mutateOp(dataset string) *op {
	attrs := func(tag string) map[string]wire.Value {
		return map[string]wire.Value{
			"type": {Kind: "string", Str: "loadtest"},
			"tag":  {Kind: "string", Str: tag},
		}
	}
	body := mustJSON(wire.MutateRequest{
		Dataset:     dataset,
		AddVertices: []wire.MutVertex{{Attrs: attrs("perfbench-a")}, {Attrs: attrs("perfbench-b")}},
		AddEdges:    []wire.MutEdge{{From: -1, To: -2, Type: "loadtest"}},
	})
	return &op{kind: opMutate, body: body, dataset: dataset}
}

func byName(ds []*dataset, name string) *dataset {
	for _, d := range ds {
		if d.name == name {
			return d
		}
	}
	return nil
}

// variant is one unique-cold question: a random rewriting of a builtin,
// its count on the library engine, and bounds that count misses.
type variant struct {
	ds      *dataset
	query   wire.Query
	key     string
	count   int
	bounds  metrics.Interval
	stratum string
}

// uniqueVariants draws n distinct variants of the builtins of both
// datasets with workload.RandomExplanations, keyed by the canonical key of
// the query the server will decode.
func uniqueVariants(ds []*dataset, n int, rng *rand.Rand) ([]variant, error) {
	type base struct {
		ds *dataset
		nq workload.Named
	}
	var bases []base
	for _, d := range ds {
		for _, nq := range d.builtins {
			bases = append(bases, base{d, nq})
		}
	}
	// counted is one generated rewriting with its library count.
	type counted struct {
		wq    wire.Query
		key   string
		count int
	}
	// generate draws per rewritings of one base and counts them; bases are
	// independent, so they run on the cores in parallel, each from its own
	// seed, and merge in a fixed order.
	generate := func(b base, per int, seed int64) []counted {
		var out []counted
		for _, q := range workload.RandomExplanations(b.nq.Build(), b.ds.lib.Domain(), per, seed) {
			if q.Validate() != nil {
				continue
			}
			wq := wire.FromQuery(q)
			dq, err := wq.ToQuery()
			if err != nil {
				continue
			}
			count := b.ds.lib.Matcher().Count(dq, uniqueCountCap)
			if count >= uniqueCountCap {
				continue // a cross product: no bounds are known to miss its exact count
			}
			out = append(out, counted{wq, b.ds.name + "\x00" + string(dq.AppendKey(nil)), count})
		}
		return out
	}
	seen := make(map[string]bool)
	var out []variant
	per := n/len(bases) + 1
	for round := 0; len(out) < n && round < 4; round++ {
		seeds := make([]int64, len(bases))
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		gen := make([][]counted, len(bases))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < engineWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(bases); i = int(next.Add(1) - 1) {
					gen[i] = generate(bases[i], per, seeds[i])
				}
			}()
		}
		wg.Wait()
		for i, b := range bases {
			for _, c := range gen[i] {
				if seen[c.key] {
					continue
				}
				seen[c.key] = true
				iv := missedBounds(c.count, rng)
				stratum := fmt.Sprintf("%s/%s/%s/%d", b.ds.name, b.nq.Name, iv.Classify(c.count), bits.Len(uint(c.count))/2)
				out = append(out, variant{ds: b.ds, query: c.wq, key: c.key, count: c.count, bounds: iv, stratum: stratum})
			}
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("unique-cold: only %d distinct variants, want %d", len(out), n)
	}
	return stratify(out, rng)[:n], nil
}

// stratify orders variants so that every prefix holds each stratum (base
// query, problem kind, count magnitude) in proportion to its size: the j-th
// of a stratum's n members sits at position (j + u)/n, u uniform in [0, 1).
// A run consumes a prefix whose length depends on speed, so without this
// the mix of expensive and cheap questions — and the run's figures — would
// vary from seed to seed by chance.
func stratify(vs []variant, rng *rand.Rand) []variant {
	groups := map[string][]variant{}
	var names []string
	for _, v := range vs {
		if groups[v.stratum] == nil {
			names = append(names, v.stratum)
		}
		groups[v.stratum] = append(groups[v.stratum], v)
	}
	sort.Strings(names)
	type placed struct {
		v   variant
		pos float64
	}
	var all []placed
	for _, name := range names {
		g := groups[name]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for j, v := range g {
			all = append(all, placed{v, (float64(j) + rng.Float64()) / float64(len(g))})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	out := make([]variant, len(all))
	for i, p := range all {
		out[i] = p.v
	}
	return out
}

// missedBounds picks bounds the variant's count misses: why-empty when it
// is empty, otherwise why-so-many or why-so-few at one of the §3.2.5
// cardinality factors.
func missedBounds(count int, rng *rand.Rand) metrics.Interval {
	if count == 0 {
		return metrics.AtLeastOne
	}
	f := workload.CardinalityFactors[rng.Intn(len(workload.CardinalityFactors))]
	if count == 1 && f < 1 {
		f = 2
	}
	t := workload.Threshold(count, f)
	if f < 1 {
		if t >= count {
			t = count - 1
		}
		return metrics.Interval{Lower: 1, Upper: t}
	}
	if t <= count {
		t = count + 1
	}
	return metrics.Interval{Lower: t}
}

// uniqueKinds is the op pattern each stratum cycles through: per 8
// variants, six explains (two of them over SSE) and two matches (count,
// find).
var uniqueKinds = [8]opKind{opExplain, opExplain, opMatch, opStream, opExplain, opExplain, opMatch, opStream}

// uniqueCold turns distinct variants into ops, phase k taking every
// phases-th variant of the stratified order and the ladder the last ones.
// Every explain is checked for its problem kind and cardinality; a seeded
// 1-in-16 sample is kept and compared byte-for-byte with the library
// oracle after the phase.
func uniqueCold(ds []*dataset, rng *rand.Rand, dur time.Duration, phases, ladder int) (*workloadPlan, error) {
	per := int(uniquePerSecond * dur.Seconds())
	vs, err := uniqueVariants(ds, per*phases+ladder, rng)
	if err != nil {
		return nil, err
	}
	plan := &workloadPlan{phases: make([][]*op, phases), coldLadder: true, ladderReps: 1}
	rank := map[string]int{}
	for i, v := range vs[:per*phases] {
		j := rank[v.stratum]
		rank[v.stratum]++
		var o *op
		switch k := uniqueKinds[j%len(uniqueKinds)]; k {
		case opMatch:
			o = uniqueMatch(v, j%len(uniqueKinds) > 3)
		default:
			o = uniqueExplain(v)
			o.kind = k
		}
		o.sample = rng.Intn(uniqueSampleEvery) == 0
		plan.phases[i%phases] = append(plan.phases[i%phases], o)
	}
	for _, v := range vs[per*phases:] {
		o := uniqueExplain(v)
		want, err := explainOracle(v.ds, o.body)
		if err != nil {
			return nil, err
		}
		plan.ladder = append(plan.ladder, ladderSpec{ds: v.ds, body: o.body, want: want})
	}
	return plan, nil
}

func uniqueExplain(v variant) *op {
	iv := v.bounds
	q := v.query
	body := mustJSON(wire.ExplainRequest{Dataset: v.ds.name, Query: &q, Lower: iv.Lower, Upper: iv.Upper, Budget: explainBudget})
	wantProblem := iv.Classify(v.count).String()
	wantCard := v.count
	if iv.Upper > 0 && wantCard > 4*iv.Upper {
		wantCard = 4 * iv.Upper // ExplainCtx counts the original with cap 4·upper
	}
	return &op{kind: opExplain, body: body, dataset: v.ds.name, key: v.key, check: func(payload []byte) error {
		var rep struct {
			Problem     string `json:"problem"`
			Cardinality int    `json:"cardinality"`
		}
		if err := json.Unmarshal(payload, &rep); err != nil {
			return err
		}
		if rep.Problem != wantProblem || rep.Cardinality != wantCard {
			return fmt.Errorf("explain: got %s/%d, want %s/%d for %s", rep.Problem, rep.Cardinality, wantProblem, wantCard, body)
		}
		return nil
	}}
}

func uniqueMatch(v variant, find bool) *op {
	q := v.query
	req := wire.MatchRequest{Dataset: v.ds.name, Query: &q, CountCap: uniqueCountCap}
	want := v.count
	if find {
		req = wire.MatchRequest{Dataset: v.ds.name, Query: &q, Mode: "find", Limit: findLimit}
		if want > findLimit {
			want = findLimit
		}
	}
	body := mustJSON(req)
	return &op{kind: opMatch, body: body, dataset: v.ds.name, key: v.key, check: func(payload []byte) error {
		var mr wire.MatchResponse
		if err := json.Unmarshal(payload, &mr); err != nil {
			return err
		}
		if mr.Count != want {
			return fmt.Errorf("match: count %d, want %d for %s", mr.Count, want, body)
		}
		return nil
	}}
}
