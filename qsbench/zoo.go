package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/searchplan"
)

// zooSearch is the paper's Phase 1+2 with no engine, kernels or serve:
// each op profiles one (network, mode) on the seeded simulator,
// searches it with QS-DNN at the paper's defaults, and solves it with
// PBQP and the best single library. The zoo mixes chains (lenet5,
// vgg), where PBQP and Viterbi are exact, with DAGs (googlenet,
// resnet, squeezenet), where they are not.
var zooSearch = workload{
	name:         "zoo-search",
	nominalRound: 3800 * time.Millisecond,
	minRounds:    3,
	setup:        setupZoo,
}

const (
	zooSamples  = 50
	zooEpisodes = 1000
)

type zooClass struct {
	net  string
	mode primitives.Mode
}

func (c zooClass) String() string { return c.net + "/" + modeName(c.mode) }

func modeName(m primitives.Mode) string {
	if m == primitives.ModeCPU {
		return "cpu"
	}
	return "gpgpu"
}

// zooOp is what one op produced, kept for the checks.
type zooOp struct {
	class zooClass
	tab   *lut.Table
	qs    *core.Result
	pbqp  *core.Result
	bsl   *core.Result
	net   *nn.Network
}

type zooInstance struct {
	c       *runCtx
	classes []zooClass
	rng     *rand.Rand
	opSeq   int
	// last holds each class's most recent op for the per-layer plan
	// metrics; every round must reproduce a class's plan exactly.
	last   map[zooClass]*zooOp
	planMs map[zooClass]float64
	// measurements is the LUT measurement count per op (layer samples
	// plus penalty measurements), summed.
	measurements float64
}

// board is the seeded simulator: the workload seed picks both the
// simulator's noise and the search seed.
func (z *zooInstance) board() *platform.Platform {
	b := platform.JetsonTX2Like()
	b.Seed = uint64(z.c.cfg.seed)
	return b
}

func setupZoo(c *runCtx) (instance, error) {
	z := &zooInstance{
		c:      c,
		rng:    rand.New(rand.NewSource(c.cfg.seed)),
		last:   map[zooClass]*zooOp{},
		planMs: map[zooClass]float64{},
	}
	for _, n := range models.All() {
		if _, err := models.Build(n); err != nil {
			return nil, err
		}
		for _, m := range []primitives.Mode{primitives.ModeCPU, primitives.ModeGPGPU} {
			z.classes = append(z.classes, zooClass{n, m})
		}
	}
	// Warm-up: one small op, not recorded.
	if _, err := z.op(zooClass{"lenet5", primitives.ModeCPU}, 0); err != nil {
		return nil, err
	}
	return z, nil
}

// op is one timed unit: build, profile, compile, search, PBQP, BSL.
func (z *zooInstance) op(c zooClass, opID int) (*zooOp, error) {
	tr := z.c.tr
	root := tr.begin("op", 0, opID)
	defer tr.end(root)
	net, err := models.Build(c.net)
	if err != nil {
		return nil, err
	}
	o := &zooOp{class: c, net: net}
	tr.do("profile.Run", root, opID, func() {
		o.tab, err = profile.Run(net, profile.NewSimSource(net, z.board()), profile.Options{Mode: c.mode, Samples: zooSamples})
	})
	if err != nil {
		return nil, err
	}
	var p *searchplan.Plan
	tr.do("searchplan.Compile", root, opID, func() { p = searchplan.Compile(o.tab) })
	tr.do("core.SearchPlanned", root, opID, func() {
		o.qs = core.SearchPlanned(p, core.Config{Episodes: zooEpisodes, Seed: z.c.cfg.seed})
	})
	tr.do("core.PBQP", root, opID, func() { o.pbqp = core.PBQP(o.tab) })
	tr.do("core.BestSingleLibrary", root, opID, func() { _, o.bsl = core.BestSingleLibrary(o.tab) })
	return o, nil
}

func (z *zooInstance) round(r int, s *sampler) {
	order := z.rng.Perm(len(z.classes))
	for _, k := range order {
		c := z.classes[k]
		z.opSeq++
		t0 := time.Now()
		o, err := z.op(c, z.opSeq)
		s.record(c.String(), time.Since(t0), err)
		if err != nil {
			continue
		}
		if msg := checkZoo(o); msg != "" {
			s.fail(msg)
			continue
		}
		ms := o.qs.Time * 1e3
		if prev, ok := z.planMs[c]; ok && prev != ms {
			s.fail(fmt.Sprintf("%s: plan %.9g ms differs from the previous round's %.9g ms", c, ms, prev))
		}
		z.planMs[c] = ms
		z.last[c] = o
		z.measurements += measurementsOf(o.tab)
	}
}

// checkZoo verifies one op: the QS plan's cost recomputed from the LUT
// equals the reported cost, and on chains it is no better than the
// Viterbi optimum. It returns "" when the op is correct.
func checkZoo(o *zooOp) string {
	got := o.tab.TotalTime(o.qs.Assignment)
	if !closeRel(got, o.qs.Time, 1e-12) {
		return fmt.Sprintf("%s: QS plan costs %.12g s on its LUT, search reported %.12g s", o.class, got, o.qs.Time)
	}
	if o.net.IsChain() {
		opt, err := core.Optimal(o.tab)
		if err != nil {
			return fmt.Sprintf("%s: %v", o.class, err)
		}
		if o.qs.Time < opt.Time*(1-1e-12) {
			return fmt.Sprintf("%s: QS plan %.12g s beats the chain optimum %.12g s", o.class, o.qs.Time, opt.Time)
		}
	}
	return ""
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// measurementsOf counts what profiling measured for one table: every
// (layer, candidate) pair once per sample, plus one measurement per
// (edge, producer candidate, consumer candidate) and per output
// candidate.
func measurementsOf(tab *lut.Table) float64 {
	var m int
	for i := 1; i < tab.NumLayers(); i++ {
		m += len(tab.Candidates(i)) * zooSamples
	}
	for _, e := range tab.Edges() {
		m += len(tab.Candidates(e.From)) * len(tab.Candidates(e.To))
	}
	m += len(tab.Candidates(tab.OutputLayer()))
	return float64(m)
}

func (z *zooInstance) check(*sampler) {}

func (z *zooInstance) planMS() float64 {
	vals := make([]float64, 0, len(z.planMs))
	for _, c := range z.classes {
		if v, ok := z.planMs[c]; ok {
			vals = append(vals, v)
		}
	}
	return geomean(vals)
}

func (z *zooInstance) layers(s *sampler, spans []span) map[string]metric {
	secs, _ := layerTotals(timedSpans(spans))
	ops := float64(s.attempted)
	var pbqp, bsl []float64
	for _, c := range z.classes {
		if o, ok := z.last[c]; ok {
			pbqp = append(pbqp, o.pbqp.Time*1e3)
			bsl = append(bsl, o.bsl.Time*1e3)
		}
	}
	return map[string]metric{
		"profile.ms_per_op":           {secs["profile.Run"] * 1e3 / ops, "ms"},
		"profile.measurements_per_op": {z.measurements / ops, "count"},
		"searchplan.ms_per_op":        {secs["searchplan.Compile"] * 1e3 / ops, "ms"},
		"core.search_ms_per_op":       {secs["core.SearchPlanned"] * 1e3 / ops, "ms"},
		"core.episodes_per_s":         {ops * zooEpisodes / secs["core.SearchPlanned"], "1/s"},
		"core.pbqp_ms_per_op":         {secs["core.PBQP"] * 1e3 / ops, "ms"},
		"core.pbqp_plan_ms_geomean":   {geomean(pbqp), "ms"},
		"core.bsl_plan_ms_geomean":    {geomean(bsl), "ms"},
	}
}

func (z *zooInstance) describe(rec map[string]any) {
	rec["classes"] = len(z.classes)
	rec["samples"] = zooSamples
	rec["episodes"] = zooEpisodes
}

func (z *zooInstance) close() {}
