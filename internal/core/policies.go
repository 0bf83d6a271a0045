package core

import (
	"math"
	"math/rand"

	"repro/internal/lut"
	"repro/internal/primitives"
	"repro/internal/qlearn"
)

// Alternative exploration policies — the paper uses ε-greedy (following
// Baker et al.) and names richer exploration among the things to try;
// this file provides a Boltzmann (softmax) policy for comparison.

// Policy selects an action given the Q-values of the allowed actions.
type Policy interface {
	// Select returns the chosen action from allowed, given access to
	// the Q-table at (step, prim) and the episode index.
	Select(q *qlearn.Table, step, prim int, allowed []int, episode int, rng *rand.Rand) int
}

// EpsilonGreedy is the paper's policy: explore uniformly with
// probability ε (from the schedule), otherwise exploit.
type EpsilonGreedy struct {
	// Schedule is the ε plateau list.
	Schedule []qlearn.Phase
}

// Select implements Policy.
func (p *EpsilonGreedy) Select(q *qlearn.Table, step, prim int, allowed []int, episode int, rng *rand.Rand) int {
	if rng.Float64() < qlearn.EpsilonAt(p.Schedule, episode) {
		return allowed[rng.Intn(len(allowed))]
	}
	return q.Best(step, prim, allowed, rng)
}

// Boltzmann samples actions proportionally to exp(Q/T), annealing the
// temperature geometrically from Start to End over the episode budget.
type Boltzmann struct {
	// Start and End are the initial and final temperatures.
	Start, End float64
	// Episodes is the annealing horizon.
	Episodes int
}

// temperature returns the annealed temperature at the episode.
func (p *Boltzmann) temperature(episode int) float64 {
	if p.Episodes <= 1 {
		return p.End
	}
	frac := float64(episode) / float64(p.Episodes-1)
	if frac > 1 {
		frac = 1
	}
	return p.Start * math.Pow(p.End/p.Start, frac)
}

// Select implements Policy.
func (p *Boltzmann) Select(q *qlearn.Table, step, prim int, allowed []int, episode int, rng *rand.Rand) int {
	t := p.temperature(episode)
	// Stabilize by subtracting the max Q.
	maxQ := math.Inf(-1)
	for _, a := range allowed {
		if v := q.Get(step, prim, a); v > maxQ {
			maxQ = v
		}
	}
	weights := make([]float64, len(allowed))
	var sum float64
	for i, a := range allowed {
		weights[i] = math.Exp((q.Get(step, prim, a) - maxQ) / t)
		sum += weights[i]
	}
	r := rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return allowed[i]
		}
	}
	return allowed[len(allowed)-1]
}

// SearchWithPolicy runs the QS-DNN episode walk with a pluggable
// exploration policy; the Q-update machinery (replay included) is the
// standard one.
func SearchWithPolicy(tab *lut.Table, cfg Config, policy Policy) *Result {
	cfg = cfg.withDefaults()
	if policy == nil {
		policy = &EpsilonGreedy{Schedule: cfg.Schedule}
	}
	rng := newSearchRNG(cfg.Seed)
	L := tab.NumLayers()
	q := qlearn.NewTable(L, primitives.Count())
	replay := qlearn.NewReplay(cfg.Agent.ReplaySize)

	allowed := make([][]int, L)
	for i := 1; i < L; i++ {
		ids := tab.Candidates(i)
		acts := make([]int, len(ids))
		for k, id := range ids {
			acts[k] = int(id)
		}
		allowed[i] = acts
	}

	// Normalize rewards by the largest finite layer time so Q-values —
	// and therefore Boltzmann temperatures — are scale-free across
	// problems. ε-greedy is invariant to positive scaling, so this
	// changes nothing for the paper's policy.
	scale := 0.0
	for i := 1; i < L; i++ {
		for _, p := range tab.Candidates(i) {
			if v := tab.Time(i, p); !math.IsInf(v, 1) && v > scale {
				scale = v
			}
		}
	}
	if scale == 0 {
		scale = 1
	}

	assignment := make([]primitives.ID, L)
	assignment[0] = tab.Candidates(0)[0]
	best := &Result{Time: math.Inf(1), Episodes: cfg.Episodes}

	for ep := 0; ep < cfg.Episodes; ep++ {
		traj := make([]qlearn.Transition, 0, L-1)
		for i := 1; i < L; i++ {
			prev := int(assignment[i-1])
			action := policy.Select(q, i-1, prev, allowed[i], ep, rng)
			assignment[i] = primitives.ID(action)
			reward := -tab.LayerCost(i, assignment[i], assignment) / scale
			var next []int
			if i+1 < L {
				next = allowed[i+1]
			}
			traj = append(traj, qlearn.Transition{
				Step: i - 1, Prim: prev, Action: action,
				Reward: reward, NextAllowed: next,
			})
		}
		total := tab.TotalTime(assignment)
		q.UpdateEpisode(traj, cfg.Agent)
		if !cfg.DisableReplay {
			replay.Add(traj)
			replay.ReplayInto(q, cfg.Agent, cfg.ReplayUpdates, rng)
		}
		if total < best.Time {
			best.Time = total
			best.Assignment = append([]primitives.ID(nil), assignment...)
		}
		best.Curve = append(best.Curve, EpisodePoint{
			Episode: ep, Epsilon: qlearn.EpsilonAt(cfg.Schedule, ep), Time: total, Best: best.Time,
		})
	}
	return best
}
