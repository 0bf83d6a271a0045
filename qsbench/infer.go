package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/tensor"
)

// engineInfer is the data plane alone, with no search, profile or
// serve: each op is one engine.Run of a frozen plan on a fixed input.
var engineInfer = workload{
	name:         "engine-infer",
	nominalRound: 260 * time.Millisecond,
	// Every class gets at least 10 samples beyond its p90.
	minRounds: minSamplesFor(0.9, 10),
	setup:     setupInfer,
}

// engineClasses are the (network, plan) pairs run each round. Vanilla
// runs on lenet5 only: on mobilenet-v1-025 it takes about half a
// second and would dominate every round.
var engineClasses = []struct{ net, kind string }{
	{"lenet5", "vanilla"}, {"lenet5", "bsl"}, {"lenet5", "qs"},
	{"mobilenet-v1-025", "bsl"}, {"mobilenet-v1-025", "qs"},
}

type inferClass struct {
	name       string // "<net>/<kind>"
	eng        *engine.Engine
	in         *tensor.Tensor
	assignment []primitives.ID
	ref        []float32
}

type inferInstance struct {
	c       *runCtx
	classes []*inferClass
	rng     *rand.Rand
	opSeq   int
	planMs  float64

	// Per-layer accumulators, filled in traced runs only.
	algoSec             map[string]float64
	penaltySec, glueSec float64
	allocObjs, allocB   uint64
}

func setupInfer(c *runCtx) (instance, error) {
	set, err := loadFrozen(filepath.Join(c.cfg.dir, frozenFile))
	if err != nil {
		return nil, err
	}
	x := &inferInstance{c: c, rng: rand.New(rand.NewSource(c.cfg.seed)), algoSec: map[string]float64{}}
	var qsMs []float64
	for _, fn := range set.Networks {
		net, err := models.Build(fn.Network)
		if err != nil {
			return nil, err
		}
		eng, in := newEngine(net)
		// The seed's simulator prices the frozen QS plan: the plan is
		// fixed, the LUT it is priced on follows the workload seed.
		tab, err := simCPUTable(net, uint64(c.cfg.seed))
		if err != nil {
			return nil, err
		}
		for _, fp := range fn.Plans {
			a, err := fp.assignment(net)
			if err != nil {
				return nil, err
			}
			if fp.Kind == "qs" {
				qsMs = append(qsMs, tab.TotalTime(a)*1e3)
			}
			for _, ec := range engineClasses {
				if ec.net == fn.Network && ec.kind == fp.Kind {
					x.classes = append(x.classes, &inferClass{
						name: fn.Network + "/" + fp.Kind, eng: eng, in: in, assignment: a, ref: fp.Output,
					})
				}
			}
		}
	}
	if len(x.classes) != len(engineClasses) {
		return nil, fmt.Errorf("%s holds %d of the %d engine classes", frozenFile, len(x.classes), len(engineClasses))
	}
	x.planMs = geomean(qsMs)
	// Warm-up: one unrecorded round; an unexecutable plan fails here.
	for _, cl := range x.classes {
		res, err := cl.eng.Run(cl.assignment, cl.in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cl.name, err)
		}
		if d := outputError(res.Output.Data(), cl.ref); !(d <= outputTolerance) {
			return nil, fmt.Errorf("%s: output differs from the stored reference by %.3g", cl.name, d)
		}
	}
	return x, nil
}

func (x *inferInstance) round(r int, s *sampler) {
	for _, k := range x.rng.Perm(len(x.classes)) {
		cl := x.classes[k]
		x.opSeq++
		res, d, err := x.op(cl)
		s.record(cl.name, d, err)
		if err != nil {
			continue
		}
		if e := outputError(res.Output.Data(), cl.ref); !(e <= outputTolerance) {
			s.fail(fmt.Sprintf("%s: output differs from the stored reference by %.3g (tolerance %g)", cl.name, e, outputTolerance))
		}
	}
}

// op runs one inference. In traced runs it also attributes the run's
// time to kernels by algorithm, conversions and glue, and counts the
// allocations around the call.
func (x *inferInstance) op(cl *inferClass) (*engine.RunResult, time.Duration, error) {
	tr := x.c.tr
	if tr == nil {
		t0 := time.Now()
		res, err := cl.eng.Run(cl.assignment, cl.in)
		return res, time.Since(t0), err
	}
	id := tr.begin("engine.Run", 0, x.opSeq)
	o0, b0 := allocStats()
	t0 := time.Now()
	res, err := cl.eng.Run(cl.assignment, cl.in)
	d := time.Since(t0)
	o1, b1 := allocStats()
	tr.end(id)
	if err != nil {
		return nil, d, err
	}
	x.allocObjs += o1 - o0
	x.allocB += b1 - b0
	var layers, pens float64
	for i, sec := range res.LayerSeconds {
		if i == 0 {
			continue
		}
		x.algoSec[primitives.ByID(cl.assignment[i]).Algo.String()] += sec
		layers += sec
	}
	for _, sec := range res.PenaltySeconds {
		pens += sec
	}
	x.penaltySec += pens
	x.glueSec += d.Seconds() - layers - pens
	return res, d, nil
}

func (x *inferInstance) check(*sampler) {}

func (x *inferInstance) planMS() float64 { return x.planMs }

// engineAlgos are the kernel algorithms the frozen plans use; gemv and
// winograd appear in none of them, so they are not reported.
var engineAlgos = []string{"direct", "gemm", "spatial-dw", "sparse", "fft"}

func (x *inferInstance) layers(s *sampler, _ []span) map[string]metric {
	ops := float64(s.attempted)
	m := map[string]metric{
		"engine.convert_ms_per_op": {x.penaltySec * 1e3 / ops, "ms"},
		"engine.glue_ms_per_op":    {x.glueSec * 1e3 / ops, "ms"},
		"engine.allocs_per_op":     {float64(x.allocObjs) / ops, "count"},
		"engine.alloc_kb_per_op":   {float64(x.allocB) / 1024 / ops, "KB"},
	}
	for _, a := range engineAlgos {
		m["kernels."+a+"_ms_per_op"] = metric{x.algoSec[a] * 1e3 / ops, "ms"}
	}
	med := func(c string) float64 { return median(s.byClass[c]) }
	m["engine.speedup_vs_vanilla"] = metric{med("lenet5/vanilla") / med("lenet5/qs"), "x"}
	m["engine.speedup_vs_bsl"] = metric{geomean([]float64{
		med("lenet5/bsl") / med("lenet5/qs"),
		med("mobilenet-v1-025/bsl") / med("mobilenet-v1-025/qs"),
	}), "x"}
	return m
}

func (x *inferInstance) describe(rec map[string]any) {
	rec["kernel_workers"] = x.classes[0].eng.Workers()
	rec["frozen_plans"] = frozenFile
	rec["output_tolerance"] = outputTolerance
}

func (x *inferInstance) close() {}
