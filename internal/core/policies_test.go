package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/primitives"
	"repro/internal/qlearn"
)

func TestEpsilonGreedyPolicyMatchesSearch(t *testing.T) {
	// SearchWithPolicy with the paper's ε-greedy must reproduce Search
	// exactly (same RNG consumption pattern, same updates).
	tab := profiled(t, smallChain(t), primitives.ModeGPGPU)
	cfg := Config{Episodes: 300, Seed: 9}
	direct := Search(tab, cfg)
	viaPolicy := SearchWithPolicy(tab, cfg, nil)
	if direct.Time != viaPolicy.Time {
		t.Errorf("policy search %.6g != direct search %.6g", viaPolicy.Time, direct.Time)
	}
}

func TestBoltzmannPolicyFindsGoodSolutions(t *testing.T) {
	tab := profiled(t, models.MustBuild("mobilenet-v1"), primitives.ModeGPGPU)
	cfg := Config{Episodes: 700, Seed: 1}
	res := SearchWithPolicy(tab, cfg, &Boltzmann{Start: 1.0, End: 0.01, Episodes: 700})
	if math.IsInf(res.Time, 0) || res.Time <= 0 {
		t.Fatalf("boltzmann time %v", res.Time)
	}
	// Must beat random search and stay within 2x of the optimum.
	rs := RandomSearch(tab, 700, 1)
	if res.Time >= rs.Time {
		t.Errorf("boltzmann %.4g should beat random %.4g", res.Time, rs.Time)
	}
	opt, err := Optimal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time > 2*opt.Time {
		t.Errorf("boltzmann %.4g more than 2x off optimum %.4g", res.Time, opt.Time)
	}
}

func TestBoltzmannTemperatureAnneals(t *testing.T) {
	p := &Boltzmann{Start: 1, End: 0.01, Episodes: 100}
	if got := p.temperature(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("t(0) = %v", got)
	}
	if got := p.temperature(99); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("t(end) = %v", got)
	}
	if p.temperature(50) <= p.temperature(49+50) || p.temperature(10) >= p.temperature(0) {
		t.Error("temperature should decrease monotonically")
	}
	// Past the horizon: clamped to End.
	if got := p.temperature(500); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("t(past) = %v", got)
	}
	one := &Boltzmann{Start: 1, End: 0.5, Episodes: 1}
	if one.temperature(0) != 0.5 {
		t.Error("single-episode horizon should use End")
	}
}

func TestBoltzmannSamplesProportionally(t *testing.T) {
	q := qlearn.NewTable(1, 3)
	q.Set(0, 0, 0, 1.0)
	q.Set(0, 0, 1, 0.0)
	q.Set(0, 0, 2, -1.0)
	p := &Boltzmann{Start: 0.5, End: 0.5, Episodes: 10}
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		counts[p.Select(q, 0, 0, []int{0, 1, 2}, 0, rng)]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2]) {
		t.Errorf("sampling not ordered by Q: %v", counts)
	}
	if counts[2] == 0 {
		t.Error("low-Q action should still be explored at T=0.5")
	}
}
