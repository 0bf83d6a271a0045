// Search hot-path benchmarks: the compiled-plan episode engine's
// steady-state cost. These are the benches scripts/bench.sh runs and
// the CI bench-smoke job tracks with benchstat against
// bench/baseline.txt (the committed pre-searchplan numbers).
package qsdnn

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/primitives"
	"repro/internal/qlearn"
	"repro/internal/searchplan"
)

// BenchmarkSearchEpisodes runs the paper's full 1000-episode QS-DNN
// search on the AlexNet GPGPU table once per iteration — the
// episodes/sec headline of the zero-alloc engine work. The single
// sub-benchmark keeps its "default" name so benchstat pairs it with
// older records.
func BenchmarkSearchEpisodes(b *testing.B) {
	tab := benchTable(b, "alexnet", primitives.ModeGPGPU)
	b.Run("default", func(b *testing.B) {
		cfg := core.Config{Episodes: 1000, Seed: 1}
		b.ReportAllocs()
		b.ResetTimer()
		var res *core.Result
		for i := 0; i < b.N; i++ {
			res = core.Search(tab, cfg)
		}
		b.StopTimer()
		sec := b.Elapsed().Seconds()
		if sec > 0 {
			b.ReportMetric(float64(b.N)*float64(cfg.Episodes)/sec, "episodes/s")
		}
		b.ReportMetric(res.Time*1e3, "ms_best")
	})
}

// BenchmarkReplayInto measures the replay loop in isolation: one full
// replay pass (128 sampled episodes re-applied to the Q-table) per
// iteration, at AlexNet-like dimensions. The sub-benchmark keeps its
// "default" name so benchstat pairs it with older records.
func BenchmarkReplayInto(b *testing.B) {
	const steps, prims, epLen, capacity = 16, 24, 15, 128
	rng := rand.New(rand.NewSource(1))
	allowed := make([]int, prims)
	for i := range allowed {
		allowed[i] = i
	}
	q := qlearn.NewTable(steps, prims)
	replay := qlearn.NewReplay(capacity)
	traj := make([]qlearn.Transition, epLen)
	cfg := qlearn.PaperConfig()
	for ep := 0; ep < capacity; ep++ {
		prev := 0
		for k := 0; k < epLen; k++ {
			action := rng.Intn(prims)
			var next []int
			if k+1 < epLen {
				next = allowed
			}
			traj[k] = qlearn.Transition{Step: k, Prim: prev, Action: action, Reward: -rng.Float64(), NextAllowed: next}
			prev = action
		}
		replay.Add(traj)
	}
	b.Run("default", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replay.ReplayInto(q, cfg, capacity, rng)
		}
	})
}

// BenchmarkPlanTotalTime measures one full-assignment evaluation on
// the compiled plan — the cost of an episode's terminal reward.
func BenchmarkPlanTotalTime(b *testing.B) {
	tab := benchTable(b, "alexnet", primitives.ModeGPGPU)
	plan := searchplan.Compile(tab)
	rng := rand.New(rand.NewSource(1))
	apos := make([]int32, plan.NumLayers())
	for i := 1; i < plan.NumLayers(); i++ {
		apos[i] = int32(rng.Intn(plan.NumCandidates(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += plan.TotalTimePos(apos)
	}
	_ = sink
}
