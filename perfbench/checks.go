package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/wire"
)

const (
	// maxSampled bounds the unique-cold payloads replayed on the oracle per
	// run.
	maxSampled = 64
	// hotHitRate is the plan and count cache hit rate repeat-hot must keep
	// after warm-up; coldPlanHitRate is the plan hit rate unique-cold must
	// stay below.
	hotHitRate      = 0.99
	coldPlanHitRate = 0.5
	// minWriteShare is write-mix's lowest refreeze share of operations.
	minWriteShare = 1.0 / 20
)

// verifySamples runs the checks that need the library after the timed
// phases: sampled unique-cold payloads against the oracle, the epoch and
// size arithmetic of every write, and the LDBC Q2 why-empty rewriting.
func (r *runState) verifySamples(phases ...*phase) {
	checked := 0
	for _, p := range phases {
		if p == nil {
			continue
		}
		for i := range p.samples {
			s := &p.samples[i]
			if !s.op.sample || s.ok == 0 || checked >= maxSampled {
				continue
			}
			checked++
			ds := byName(r.ds, s.op.dataset)
			var want []byte
			var err error
			if s.op.kind == opMatch {
				want, err = matchOracle(ds, s.op.body)
			} else {
				want, err = explainOracle(ds, s.op.body)
			}
			if err != nil || !bytes.Equal(want, s.payload) {
				r.wrong("sampled payload differs from the library oracle (%v): %.300s", err, s.op.body)
			}
		}
	}
	if r.workload == "unique-cold" && checked == 0 {
		r.fail("unique-cold: no sampled payload was compared with the oracle")
	}

	// Writes: per dataset, every epoch is published once and the live sizes
	// grow by exactly two vertices and one edge per epoch.
	epochs := map[string][]*wire.MutateResponse{}
	var all []sample
	for _, p := range phases {
		if p != nil {
			all = append(all, p.samples...)
		}
	}
	for _, s := range append(all, r.probe...) {
		if s.mut != nil {
			epochs[s.op.dataset] = append(epochs[s.op.dataset], s.mut)
		}
	}
	for name, ms := range epochs {
		g := byName(r.ds, name).lib.Graph()
		sort.Slice(ms, func(i, j int) bool { return ms[i].Epoch < ms[j].Epoch })
		for i, m := range ms {
			n := int(m.Epoch - 1)
			if (i > 0 && m.Epoch == ms[i-1].Epoch) || m.Vertices != g.NumLiveVertices()+2*n || m.Edges != g.NumLiveEdges()+n {
				r.wrong("%s: write answered epoch %d with %d vertices / %d edges", name, m.Epoch, m.Vertices, m.Edges)
			}
		}
	}

	r.checkQ2()
}

// wrong records an answer found wrong after it was counted as correct.
func (r *runState) wrong(format string, args ...any) {
	r.tally.ok--
	fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", fmt.Sprintf(format, args...))
}

// checkQ2 asks the server the LDBC Q2 why-empty question once more and
// checks that the top rewriting deletes the name predicate of vertex 3.
func (r *runState) checkQ2() {
	ldbc := byName(r.ds, "ldbc")
	body := mustJSON(wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1, Budget: explainBudget})
	want, err := explainOracle(ldbc, body)
	if err != nil {
		r.fail("ldbc Q2 oracle: %v", err)
		return
	}
	s := r.ctl.do(&op{kind: opExplain, body: body, dataset: "ldbc", want: [][]byte{want}}, "")
	r.tally.add([]sample{s})
	if s.err != nil {
		r.fail("ldbc Q2 why-empty: %v", s.err)
		return
	}
	var rep wire.Report
	if err := json.Unmarshal(want, &rep); err != nil || len(rep.Rewritings) == 0 ||
		len(rep.Rewritings[0].Ops) != 1 || rep.Rewritings[0].Ops[0] != "delete predicate v3.name" {
		r.fail("ldbc Q2 why-empty: top rewriting is not `delete predicate v3.name`: %s", want)
	}
}

// selfChecks fails the run when a workload stops stressing the layer it
// was chosen for, or when a guard counter moved.
func (r *runState) selfChecks(main, traced *phase) {
	c := main.log.delta()
	ops, writes := 0, 0
	for _, s := range main.samples {
		ops++
		if s.op.kind == opMutate && s.ok == 1 {
			writes++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, %.1f answers/s, plan hit %.4f, count hit %.4f (share of count lookups served from the count cache), %d epochs\n",
		r.workload, r.seed, ops, answerRate(main), c.plan.rate(), c.count.rate(), int(c.epochs))
	switch r.workload {
	case "repeat-hot":
		if c.plan.rate() < hotHitRate || c.count.rate() < hotHitRate {
			r.fail("repeat-hot: plan hit rate %.4f / count hit rate %.4f below %.2f after warm-up", c.plan.rate(), c.count.rate(), hotHitRate)
		}
	case "unique-cold":
		if c.plan.rate() >= coldPlanHitRate {
			r.fail("unique-cold: plan hit rate %.4f not below %.2f", c.plan.rate(), coldPlanHitRate)
		}
		seen := map[string]bool{}
		for _, p := range []*phase{main, traced} {
			if p == nil {
				continue
			}
			for _, s := range p.samples {
				if seen[s.op.key] {
					r.fail("unique-cold: spec repeated within the run: %q", s.op.key)
					break
				}
				seen[s.op.key] = true
			}
		}
	case "write-mix":
		if int(c.epochs) != writes {
			r.fail("write-mix: %d epochs published for %d acknowledged writes", int(c.epochs), writes)
		}
		if float64(writes) < minWriteShare*float64(ops) {
			r.fail("write-mix: %d refreezes in %d operations, below 1 in 20", writes, ops)
		}
	}
	final := main.stats1
	if traced != nil {
		final = traced.stats1
	}
	if g := final.Resilience; g.Shed+g.QueueFull+g.ExpiredQueued+g.ExpiredRunning+g.DegradedServed+g.Panics != 0 {
		r.fail("guards moved: shed %d, queue full %d, expired %d/%d, degraded %d, panics %d",
			g.Shed, g.QueueFull, g.ExpiredQueued, g.ExpiredRunning, g.DegradedServed, g.Panics)
	}
}
