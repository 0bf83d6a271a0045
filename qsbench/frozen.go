package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// frozenFile holds engine-infer's inputs: plans searched once on the
// simulator and the outputs each plan produced. Freezing them keeps
// every timed input independent of any measured timing.
const frozenFile = "frozen/plans.json"

// The settings the frozen plans were generated with.
const (
	frozenPlatformSeed = 1
	frozenSamples      = 50
	frozenSearchSeed   = 1
	frozenEpisodes     = 1000
	engineWeightSeed   = 7
	engineInputSeed    = 7
	engineDensity      = 0.35
	// outputTolerance bounds |out - ref| relative to max(1, max|ref|).
	// Kernels are bit-identical at any worker count and SIMD level, so
	// any real difference is a defect; the slack only admits a future
	// kernel that reorders a reduction.
	outputTolerance = 1e-4
)

// engineNets are engine-infer's networks: lenet5 is small tensors,
// where allocation and glue code dominate; mobilenet-v1-025 is
// depth-wise plus point-wise convolution, where kernel time dominates.
var engineNets = []string{"lenet5", "mobilenet-v1-025"}

// planKinds are the frozen plans per network, in generation order.
var planKinds = []string{"vanilla", "bsl", "qs"}

type frozenSet struct {
	Generator string          `json:"generator"`
	Settings  frozenSettings  `json:"settings"`
	Networks  []frozenNetwork `json:"networks"`
}

type frozenSettings struct {
	Platform     string  `json:"platform"`
	PlatformSeed uint64  `json:"platform_seed"`
	Mode         string  `json:"mode"`
	Samples      int     `json:"samples"`
	SearchSeed   int64   `json:"search_seed"`
	Episodes     int     `json:"episodes"`
	WeightSeed   int64   `json:"weight_seed"`
	InputSeed    int64   `json:"input_seed"`
	Density      float64 `json:"density"`
	Tolerance    float64 `json:"tolerance"`
}

type frozenNetwork struct {
	Network string       `json:"network"`
	Plans   []frozenPlan `json:"plans"`
}

// frozenPlan is one plan: a primitive name per layer (layer 0 is the
// input pseudo-primitive) and the engine output it produced.
type frozenPlan struct {
	Kind       string    `json:"kind"`
	Primitives []string  `json:"primitives"`
	Output     []float32 `json:"output"`
}

func currentSettings() frozenSettings {
	return frozenSettings{
		Platform: platform.JetsonTX2Like().Name, PlatformSeed: frozenPlatformSeed,
		Mode: "cpu", Samples: frozenSamples, SearchSeed: frozenSearchSeed, Episodes: frozenEpisodes,
		WeightSeed: engineWeightSeed, InputSeed: engineInputSeed, Density: engineDensity,
		Tolerance: outputTolerance,
	}
}

// simCPUTable profiles net on the CPU of the simulator seeded with
// platformSeed.
func simCPUTable(net *nn.Network, platformSeed uint64) (*lut.Table, error) {
	b := platform.JetsonTX2Like()
	b.Seed = platformSeed
	return profile.Run(net, profile.NewSimSource(net, b), profile.Options{Mode: primitives.ModeCPU, Samples: frozenSamples})
}

// searchFrozenPlans computes the three plans for one network: all
// Vanilla, the best single library, and QS-DNN's search.
func searchFrozenPlans(name string) (map[string][]primitives.ID, error) {
	net, err := models.Build(name)
	if err != nil {
		return nil, err
	}
	tab, err := simCPUTable(net, frozenPlatformSeed)
	if err != nil {
		return nil, err
	}
	_, bsl := core.BestSingleLibrary(tab)
	qs := core.Search(tab, core.Config{Episodes: frozenEpisodes, Seed: frozenSearchSeed})
	return map[string][]primitives.ID{
		"vanilla": core.SingleLibrary(tab, primitives.Vanilla).Assignment,
		"bsl":     bsl.Assignment,
		"qs":      qs.Assignment,
	}, nil
}

// newEngine builds the engine the way the CLI does by default.
func newEngine(net *nn.Network) (*engine.Engine, *tensor.Tensor) {
	eng := engine.New(net, engineWeightSeed, engineDensity, engine.Parallelism(runtime.NumCPU()))
	in := tensor.New(net.InputShape, tensor.NCHW)
	in.FillRandom(rand.New(rand.NewSource(engineInputSeed)), 1)
	return eng, in
}

// generateFrozen searches the plans, runs each on the engine, and
// writes plans and outputs to path. Every plan's output must match the
// Vanilla plan's within the tolerance: the plans compute one function.
func generateFrozen(path string) error {
	set := frozenSet{Generator: "go run . -generate -dir . (in qsbench/)", Settings: currentSettings()}
	for _, name := range engineNets {
		plans, err := searchFrozenPlans(name)
		if err != nil {
			return err
		}
		net := models.MustBuild(name)
		eng, in := newEngine(net)
		fn := frozenNetwork{Network: name}
		var vanilla *tensor.Tensor
		for _, kind := range planKinds {
			res, err := eng.Run(plans[kind], in)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, kind, err)
			}
			if vanilla == nil {
				vanilla = res.Output
			} else if d := outputError(res.Output.Data(), vanilla.Data()); !(d <= outputTolerance) {
				return fmt.Errorf("%s/%s: output differs from vanilla by %.3g (tolerance %g)", name, kind, d, outputTolerance)
			}
			fp := frozenPlan{Kind: kind, Output: append([]float32(nil), res.Output.Data()...)}
			for _, id := range plans[kind] {
				fp.Primitives = append(fp.Primitives, primitives.ByID(id).Name)
			}
			fn.Plans = append(fn.Plans, fp)
		}
		set.Networks = append(set.Networks, fn)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(set); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadFrozen reads the frozen set. It fails on settings that differ
// from this benchmark's, on unknown primitives, and on plans whose
// length does not fit the network; nothing is substituted.
func loadFrozen(path string) (*frozenSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading frozen plans: %w", err)
	}
	var set frozenSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if set.Settings != currentSettings() {
		return nil, fmt.Errorf("%s was generated with %+v, the benchmark uses %+v", path, set.Settings, currentSettings())
	}
	for _, fn := range set.Networks {
		net, err := models.Build(fn.Network)
		if err != nil {
			return nil, err
		}
		for _, fp := range fn.Plans {
			if _, err := fp.assignment(net); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", fn.Network, fp.Kind, err)
			}
		}
	}
	return &set, nil
}

// assignment resolves the plan's primitive names to registry ids.
func (fp frozenPlan) assignment(net *nn.Network) ([]primitives.ID, error) {
	if len(fp.Primitives) != net.Len() {
		return nil, fmt.Errorf("plan has %d layers, network has %d", len(fp.Primitives), net.Len())
	}
	a := make([]primitives.ID, len(fp.Primitives))
	for i, name := range fp.Primitives {
		p, ok := primitives.ByName(name)
		if !ok {
			return nil, fmt.Errorf("layer %d: unknown primitive %q", i, name)
		}
		a[i] = p.Idx
	}
	return a, nil
}

// outputError is max|got-ref| relative to max(1, max|ref|); a length
// mismatch is an infinite error.
func outputError(got, ref []float32) float64 {
	if len(got) != len(ref) {
		return math.Inf(1)
	}
	var d, scale float64 = 0, 1
	for i := range ref {
		d = math.Max(d, math.Abs(float64(got[i])-float64(ref[i])))
		scale = math.Max(scale, math.Abs(float64(ref[i])))
	}
	return d / scale
}
