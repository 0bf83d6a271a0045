// Package qlearn implements the tabular Q-learning machinery of §IV-B
// and §V-B of the paper: the action-value table over (layer, primitive)
// states, the Bellman update of eq. (2), the ε-greedy schedule (50 % of
// episodes at full exploration, then 5 % at each ε from 0.9 downwards),
// and the size-128 experience-replay buffer adopted from Baker et al.
package qlearn

import (
	"fmt"
	"math"
	"math/rand"
)

// Config holds the agent hyper-parameters. The paper sets the learning
// rate to 0.05 and the discount factor to 0.9 "to give slightly more
// importance to short-term rewards", with a replay buffer of 128.
type Config struct {
	// Alpha is the learning rate α of eq. (2).
	Alpha float64
	// Gamma is the discount factor γ.
	Gamma float64
	// ReplaySize is the experience-replay buffer capacity (episodes).
	ReplaySize int
}

// PaperConfig returns the hyper-parameters used throughout the paper.
func PaperConfig() Config {
	return Config{Alpha: 0.05, Gamma: 0.9, ReplaySize: 128}
}

// Phase is one ε plateau of the exploration schedule.
type Phase struct {
	// Epsilon is the exploration probability during the phase.
	Epsilon float64
	// Episodes is the number of episodes the phase lasts.
	Episodes int
}

// PaperSchedule builds the paper's schedule for the given episode
// budget: 50 % of episodes at ε = 1 (full exploration), then ten equal
// plateaus of 5 % each at ε = 0.9, 0.8, …, 0.1, 0 (Fig. 4: ε decreases
// by 0.1 every 50 episodes of a 1000-episode run after episode 500).
func PaperSchedule(total int) []Phase {
	if total <= 0 {
		return nil
	}
	full := total / 2
	rest := total - full
	phases := []Phase{{Epsilon: 1, Episodes: full}}
	step := rest / 10
	used := 0
	for i := 0; i < 10; i++ {
		n := step
		if i == 9 {
			n = rest - used // absorb rounding in the final plateau
		}
		if n <= 0 {
			continue
		}
		phases = append(phases, Phase{Epsilon: 0.9 - 0.1*float64(i), Episodes: n})
		used += n
	}
	return phases
}

// ScheduleEpisodes sums the episode counts of a schedule.
func ScheduleEpisodes(phases []Phase) int {
	n := 0
	for _, ph := range phases {
		n += ph.Episodes
	}
	return n
}

// EpsilonAt returns the ε in force at the given zero-based episode.
func EpsilonAt(phases []Phase, episode int) float64 {
	for _, ph := range phases {
		if episode < ph.Episodes {
			return ph.Epsilon
		}
		episode -= ph.Episodes
	}
	if len(phases) == 0 {
		return 0
	}
	return phases[len(phases)-1].Epsilon
}

// Table is the action-value function Q(s, a) with states
// s = (step, primitive-at-step) and actions a = primitive at the next
// step, stored densely. Values start at zero.
//
// A table may be *shaped* (see Shape) for a fixed per-step action
// vocabulary: the action dimension of each step's rows is then stored
// permuted so that the step's allowed actions occupy the leading
// positions in vocabulary order, which turns the hot successor-max
// scans into walks over a contiguous row prefix. Shaping is a pure
// layout change — every accessor translates through the permutation,
// so observable values (and un-shaped snapshots) are bit-identical to
// an unshaped table's.
type Table struct {
	steps, prims int
	q            []float64
	// perm[s*prims+a] is the stored column of action a at step s and
	// inv its inverse; nil when the table is unshaped (identity).
	perm, inv []int32
	// shapedRef[s] is &allowed[0] of the vocabulary Shape was given
	// (nil for steps with none) — an identity fast-path test, and
	// shapedW[s] its length.
	shapedRef []*int
	shapedW   []int32
	// gen counts layout changes so replay caches can detect them.
	gen int
}

// NewTable allocates a Q-table for a walk of the given number of steps
// over the given primitive-registry size.
func NewTable(steps, prims int) *Table {
	if steps <= 0 || prims <= 0 {
		panic(fmt.Sprintf("qlearn: invalid table dims %dx%d", steps, prims))
	}
	return &Table{steps: steps, prims: prims, q: make([]float64, steps*prims*prims)}
}

// Steps returns the walk length the table covers.
func (t *Table) Steps() int { return t.steps }

// Shape fixes the per-step action vocabulary and permutes the action
// dimension of the stored rows so each step's vocabulary occupies the
// leading positions in vocabulary order. allowed[s] lists the actions
// available at step s (nil for steps with none, e.g. the terminal
// one); each must be a duplicate-free subset of [0, prims). The
// search engine shapes its table once per run: the successor-max of
// the Bellman update then scans a contiguous row prefix instead of
// gathering through an index list. Re-shaping preserves all stored
// values. The vocabulary slices are retained (not copied) both as the
// scan order and as identity fast-path keys, so callers must not
// mutate them while the table is shaped.
func (t *Table) Shape(allowed [][]int) error {
	if len(allowed) != t.steps {
		return fmt.Errorf("qlearn: Shape got %d step vocabularies, table has %d steps", len(allowed), t.steps)
	}
	np := t.prims
	perm := make([]int32, t.steps*np)
	inv := make([]int32, t.steps*np)
	refs := make([]*int, t.steps)
	ws := make([]int32, t.steps)
	for s := 0; s < t.steps; s++ {
		pm := perm[s*np : (s+1)*np]
		for a := range pm {
			pm[a] = -1
		}
		c := int32(0)
		for _, a := range allowed[s] {
			if a < 0 || a >= np || pm[a] >= 0 {
				return fmt.Errorf("qlearn: Shape step %d: invalid or duplicate action %d", s, a)
			}
			pm[a] = c
			c++
		}
		for a := 0; a < np; a++ {
			if pm[a] < 0 {
				pm[a] = c
				c++
			}
		}
		iv := inv[s*np : (s+1)*np]
		for a, p := range pm {
			iv[p] = int32(a)
		}
		if len(allowed[s]) > 0 {
			refs[s] = &allowed[s][0]
			ws[s] = int32(len(allowed[s]))
		}
	}
	t.Unshape()
	tmp := make([]float64, np)
	for s := 0; s < t.steps; s++ {
		pm := perm[s*np : (s+1)*np]
		for p := 0; p < np; p++ {
			row := t.q[(s*np+p)*np : (s*np+p+1)*np]
			for a, c := range pm {
				tmp[c] = row[a]
			}
			copy(row, tmp)
		}
	}
	t.perm, t.inv, t.shapedRef, t.shapedW = perm, inv, refs, ws
	t.gen++
	return nil
}

// Unshape restores the canonical action layout. No-op when unshaped.
func (t *Table) Unshape() {
	if t.perm == nil {
		return
	}
	np := t.prims
	tmp := make([]float64, np)
	for s := 0; s < t.steps; s++ {
		iv := t.inv[s*np : (s+1)*np]
		for p := 0; p < np; p++ {
			row := t.q[(s*np+p)*np : (s*np+p+1)*np]
			for c, a := range iv {
				tmp[a] = row[c]
			}
			copy(row, tmp)
		}
	}
	t.perm, t.inv, t.shapedRef, t.shapedW = nil, nil, nil, nil
	t.gen++
}

// canonicalQ writes the table's values into dst in the canonical
// (unshaped) layout; dst must have len(q) entries.
func (t *Table) canonicalQ(dst []float64) {
	if t.perm == nil {
		copy(dst, t.q)
		return
	}
	np := t.prims
	for s := 0; s < t.steps; s++ {
		pm := t.perm[s*np : (s+1)*np]
		for p := 0; p < np; p++ {
			row := t.q[(s*np+p)*np : (s*np+p+1)*np]
			drow := dst[(s*np+p)*np : (s*np+p+1)*np]
			for a, c := range pm {
				drow[a] = row[c]
			}
		}
	}
}

func (t *Table) idx(step, prim, action int) int {
	if t.perm != nil {
		action = int(t.perm[step*t.prims+action])
	}
	return (step*t.prims+prim)*t.prims + action
}

// row returns the contiguous action-value row of state (step, prim).
// The inner loops of Best, MaxQ and the Bellman update walk this slice
// directly instead of recomputing the full index per action — the
// values read are the same ones idx addresses.
func (t *Table) row(step, prim int) []float64 {
	base := (step*t.prims + prim) * t.prims
	return t.q[base : base+t.prims]
}

// Get returns Q((step, prim), action).
func (t *Table) Get(step, prim, action int) float64 { return t.q[t.idx(step, prim, action)] }

// Set assigns Q((step, prim), action).
func (t *Table) Set(step, prim, action int, v float64) { t.q[t.idx(step, prim, action)] = v }

// Best returns the action with the highest Q-value among the allowed
// actions, breaking ties uniformly at random with rng (nil rng breaks
// ties by first occurrence).
func (t *Table) Best(step, prim int, allowed []int, rng *rand.Rand) int {
	if len(allowed) == 0 {
		panic("qlearn: Best with no allowed actions")
	}
	row := t.row(step, prim)
	if t.perm != nil {
		// Shaped vocabulary: the scan runs over the contiguous row
		// prefix in the same order the unshaped scan visits allowed,
		// so values, comparisons and tie-break draws are identical.
		if t.shapedRef[step] == &allowed[0] && int(t.shapedW[step]) == len(allowed) {
			best := 0
			bestV := row[0]
			ties := 1
			for c := 1; c < len(allowed); c++ {
				v := row[c]
				switch {
				case v > bestV:
					best, bestV, ties = c, v, 1
				case v == bestV && rng != nil:
					ties++
					if rng.Intn(ties) == 0 {
						best = c
					}
				}
			}
			return allowed[best]
		}
		pm := t.perm[step*t.prims : (step+1)*t.prims]
		best := allowed[0]
		bestV := row[pm[best]]
		ties := 1
		for _, a := range allowed[1:] {
			v := row[pm[a]]
			switch {
			case v > bestV:
				best, bestV, ties = a, v, 1
			case v == bestV && rng != nil:
				ties++
				if rng.Intn(ties) == 0 {
					best = a
				}
			}
		}
		return best
	}
	best := allowed[0]
	bestV := row[best]
	ties := 1
	for _, a := range allowed[1:] {
		v := row[a]
		switch {
		case v > bestV:
			best, bestV, ties = a, v, 1
		case v == bestV && rng != nil:
			ties++
			if rng.Intn(ties) == 0 {
				best = a
			}
		}
	}
	return best
}

// MaxQ returns the maximum Q-value at (step, prim) over the allowed
// actions, or 0 when no actions remain (terminal state).
func (t *Table) MaxQ(step, prim int, allowed []int) float64 {
	if len(allowed) == 0 {
		return 0
	}
	row := t.row(step, prim)
	if t.perm != nil {
		if t.shapedRef[step] == &allowed[0] && int(t.shapedW[step]) == len(allowed) {
			best := row[0]
			for _, v := range row[1:len(allowed)] {
				if v > best {
					best = v
				}
			}
			return best
		}
		pm := t.perm[step*t.prims : (step+1)*t.prims]
		best := row[pm[allowed[0]]]
		for _, a := range allowed[1:] {
			if v := row[pm[a]]; v > best {
				best = v
			}
		}
		return best
	}
	best := row[allowed[0]]
	for _, a := range allowed[1:] {
		if v := row[a]; v > best {
			best = v
		}
	}
	return best
}

// Transition is one step of an episode: in state (Step, Prim) the
// agent took Action and received Reward; NextAllowed lists the actions
// available in the successor state (nil at the terminal step).
type Transition struct {
	Step, Prim, Action int
	Reward             float64
	NextAllowed        []int
}

// Update applies eq. (2) to one transition:
//
//	Q(s,a) ← Q(s,a)(1-α) + α [ r + γ max_a' Q(s', a') ]
func (t *Table) Update(tr Transition, cfg Config) {
	target := tr.Reward + cfg.Gamma*t.MaxQ(tr.Step+1, tr.Action, tr.NextAllowed)
	row := t.row(tr.Step, tr.Prim)
	c := tr.Action
	if t.perm != nil {
		c = int(t.perm[tr.Step*t.prims+tr.Action])
	}
	row[c] = row[c]*(1-cfg.Alpha) + cfg.Alpha*target
}

// UpdateEpisode applies Update to every transition of a trajectory in
// reverse order, so late rewards propagate backwards within a single
// pass.
//
// This is the innermost loop of the whole search (the replay pass
// re-applies it ReplaySize times per episode), so the Bellman update
// is fused here: successor-row max and value update run over directly
// indexed contiguous rows with the state stride hoisted out of the
// loop. The arithmetic is expression-for-expression the same as
// Update's — same operations, same order — so the learned values are
// bit-identical to the per-transition path.
func (t *Table) UpdateEpisode(traj []Transition, cfg Config) {
	q, np := t.q, t.prims
	stride := np * np
	keep := 1 - cfg.Alpha
	for i := len(traj) - 1; i >= 0; i-- {
		tr := &traj[i]
		var maxNext float64
		if na := tr.NextAllowed; len(na) > 0 {
			base := (tr.Step+1)*stride + tr.Action*np
			row := q[base : base+np]
			switch {
			case t.perm == nil:
				maxNext = row[na[0]]
				for _, a := range na[1:] {
					if v := row[a]; v > maxNext {
						maxNext = v
					}
				}
			case t.shapedRef[tr.Step+1] == &na[0] && int(t.shapedW[tr.Step+1]) == len(na):
				maxNext = row[0]
				for _, v := range row[1:len(na)] {
					if v > maxNext {
						maxNext = v
					}
				}
			default:
				pm := t.perm[(tr.Step+1)*np : (tr.Step+2)*np]
				maxNext = row[pm[na[0]]]
				for _, a := range na[1:] {
					if v := row[pm[a]]; v > maxNext {
						maxNext = v
					}
				}
			}
		}
		target := tr.Reward + cfg.Gamma*maxNext
		k := tr.Step*stride + tr.Prim*np + tr.Action
		if t.perm != nil {
			k = tr.Step*stride + tr.Prim*np + int(t.perm[tr.Step*np+tr.Action])
		}
		q[k] = q[k]*keep + cfg.Alpha*target
	}
}

// Replay is the fixed-capacity experience buffer: it stores complete
// episode trajectories and replays a sample of them after each episode.
//
// Storage is a ring over one preallocated backing slab: within a
// search every episode has the same length (layers − 1), so the slab
// is sized capacity×length at the first Add and each slot's copy goes
// into its fixed region — steady-state Adds perform zero heap
// allocations. Trajectories of a different length (possible only when
// a checkpoint restored from foreign bytes carries them) fall back to
// a per-episode allocation; behavior is otherwise identical.
type Replay struct {
	cap  int
	buf  [][]Transition
	next int
	// slab backs the trajectory copies; epLen is the episode length it
	// was shaped for (-1 until the first non-empty Add fixes it).
	slab  []Transition
	epLen int
	// Compiled form of the slab episodes, rebuilt lazily per slot on
	// the first replay after the slot changes: cks is the flat Q index
	// each transition updates, crows the successor state's row slice
	// into the table's backing array (nil at the terminal step; the
	// vocabulary-width prefix when the table is shaped, the full row
	// otherwise), crw the reward. A replay pass re-applies each stored
	// episode ~ReplaySize times, so deriving these indices and slice
	// headers once per Add instead of per replayed transition takes
	// the (step, prim, action) arithmetic and the row bounds checks
	// out of the innermost loop of the whole search. Against a shaped
	// table (see Table.Shape) the replay loop walks crows[i] — a
	// contiguous row prefix in vocabulary order — with no index gather
	// at all. cok marks slots that live in the slab; cuse marks slots
	// the compiled path may replay (slab-resident and, when shaped,
	// vocabulary-identical); cdirty marks slots whose arrays are
	// stale, cdl lists them and cnd counts them. cnp, ctab and cgen pin
	// the dimensions, table and layout generation the compilation is
	// valid for.
	cks    []int32
	crows  [][]float64
	crw    []float64
	cok    []bool
	cuse   []bool
	cdirty []bool
	cdl    []int32
	cnd    int
	cnp    int
	ctab   *Table
	cgen   int
}

// NewReplay allocates a buffer with the given capacity (episodes).
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		capacity = 1
	}
	return &Replay{cap: capacity, buf: make([][]Transition, 0, capacity), epLen: -1}
}

// Len returns the number of stored episodes.
func (r *Replay) Len() int { return len(r.buf) }

// Add stores a copy of the trajectory, evicting the oldest once full.
// The caller may reuse traj's backing array immediately.
func (r *Replay) Add(traj []Transition) {
	if r.epLen < 0 && len(traj) > 0 {
		r.epLen = len(traj)
		r.slab = make([]Transition, r.cap*r.epLen)
		r.cok = make([]bool, r.cap)
		r.cuse = make([]bool, r.cap)
		r.cdirty = make([]bool, r.cap)
	}
	slot := r.next
	if len(r.buf) < r.cap {
		slot = len(r.buf)
	}
	var cp []Transition
	if len(traj) == r.epLen {
		cp = r.slab[slot*r.epLen : (slot+1)*r.epLen : (slot+1)*r.epLen]
		copy(cp, traj)
		r.cok[slot] = true
		r.cuse[slot] = false // until the next compile refreshes it
		if !r.cdirty[slot] {
			r.cdirty[slot] = true
			r.cnd++
			r.cdl = append(r.cdl, int32(slot))
		}
	} else {
		cp = make([]Transition, len(traj))
		copy(cp, traj)
		if r.cok != nil {
			r.cok[slot] = false
			r.cuse[slot] = false
			if r.cdirty[slot] {
				r.cdirty[slot] = false
				r.cnd--
			}
		}
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, cp)
		return
	}
	r.buf[r.next] = cp
	r.next = (r.next + 1) % r.cap
}

// compile refreshes the per-slot index arrays for t's dimensions.
// Only slab-resident slots are compiled; anything else (heterogeneous
// trajectories from a foreign checkpoint) keeps using UpdateEpisode.
func (r *Replay) compile(t *Table) {
	if r.slab == nil {
		return
	}
	np := t.prims
	stride := np * np
	// Indices are packed into int32; a table too large for that (never
	// the case for real networks) simply disables the compiled path.
	if np <= 0 || t.steps*stride > math.MaxInt32 {
		r.cnp = -1
		return
	}
	full := false
	if r.cks == nil || r.cnp != np || r.ctab != t || r.cgen != t.gen {
		if r.cks == nil {
			n := r.cap * r.epLen
			r.cks = make([]int32, n)
			r.crows = make([][]float64, n)
			r.crw = make([]float64, n)
		}
		r.cnp = np
		r.ctab = t
		r.cgen = t.gen
		full = true
	}
	if !full && r.cnd == 0 {
		return
	}
	if !full {
		// Only the slots dirtied since the last pass (one per episode
		// in the steady state) — no flag scan over the whole buffer.
		for _, j32 := range r.cdl {
			if j := int(j32); r.cdirty[j] && r.cok[j] {
				r.compileSlot(t, np, stride, j)
			}
		}
		r.cdl = r.cdl[:0]
		return
	}
	for j := range r.buf {
		if r.cok[j] {
			r.compileSlot(t, np, stride, j)
		}
	}
	r.cdl = r.cdl[:0]
}

// compileSlot refreshes one slab slot's compiled arrays; see compile.
func (r *Replay) compileSlot(t *Table, np, stride, j int) {
	off := j * r.epLen
	traj := r.buf[j]
	usable := true
	for i := range traj {
		tr := &traj[i]
		k := tr.Step*stride + tr.Prim*np + tr.Action
		if t.perm != nil {
			if tr.Step < 0 || tr.Step >= t.steps || tr.Action < 0 || tr.Action >= np ||
				tr.Prim < 0 || tr.Prim >= np {
				usable = false
				break
			}
			k = tr.Step*stride + tr.Prim*np + int(t.perm[tr.Step*np+tr.Action])
		}
		r.cks[off+i] = int32(k)
		if na := tr.NextAllowed; len(na) > 0 {
			b := (tr.Step+1)*stride + tr.Action*np
			if t.perm != nil {
				// The contiguous-prefix scan is valid only for the
				// vocabulary the table was shaped with; anything else
				// replays through the translating generic path.
				if tr.Step+1 >= t.steps || t.shapedRef[tr.Step+1] != &na[0] ||
					int(t.shapedW[tr.Step+1]) != len(na) {
					usable = false
					break
				}
				r.crows[off+i] = t.q[b : b+len(na) : b+len(na)]
			} else {
				r.crows[off+i] = t.q[b : b+np : b+np]
			}
		} else {
			r.crows[off+i] = nil
		}
		r.crw[off+i] = tr.Reward
	}
	r.cuse[j] = usable
	if r.cdirty[j] {
		r.cdirty[j] = false
		r.cnd--
	}
}

// ReplayInto re-applies up to n uniformly sampled stored episodes to
// the Q-table.
//
// Slab episodes replay through their compiled index arrays: the loop
// body performs the exact arithmetic of UpdateEpisode — the successor
// max over the same values in the same candidate order, then the same
// update expression — with the flat indices looked up instead of
// recomputed, so the learned values stay bit-identical while the
// per-transition cost drops.
func (r *Replay) ReplayInto(t *Table, cfg Config, n int, rng *rand.Rand) {
	if len(r.buf) == 0 {
		return
	}
	r.compile(t)
	q, np := t.q, t.prims
	keep := 1 - cfg.Alpha
	alpha, gamma := cfg.Alpha, cfg.Gamma
	shaped := t.perm != nil
	for s := 0; s < n; s++ {
		j := rng.Intn(len(r.buf))
		if r.cnp != np || !r.cuse[j] {
			t.UpdateEpisode(r.buf[j], cfg)
			continue
		}
		off := j * r.epLen
		ks := r.cks[off : off+r.epLen]
		rows := r.crows[off : off+r.epLen]
		rw := r.crw[off : off+r.epLen]
		if shaped {
			// Shaped layout: each successor scan is a contiguous row
			// prefix in vocabulary order — no index gather at all. The
			// leading loads let the compiler drop the per-transition
			// bounds checks (epLen ≥ 1 whenever the slab exists).
			_ = ks[len(rows)-1]
			_ = rw[len(rows)-1]
			for i := len(rows) - 1; i >= 0; i-- {
				var maxNext float64
				if row := rows[i]; len(row) > 0 {
					maxNext = row[0]
					for _, v := range row[1:] {
						if v > maxNext {
							maxNext = v
						}
					}
				}
				target := rw[i] + gamma*maxNext
				k := ks[i]
				q[k] = q[k]*keep + alpha*target
			}
			continue
		}
		traj := r.buf[j]
		for i := r.epLen - 1; i >= 0; i-- {
			var maxNext float64
			if row := rows[i]; row != nil {
				na := traj[i].NextAllowed
				maxNext = row[na[0]]
				for _, a := range na[1:] {
					if v := row[a]; v > maxNext {
						maxNext = v
					}
				}
			}
			target := rw[i] + gamma*maxNext
			k := ks[i]
			q[k] = q[k]*keep + alpha*target
		}
	}
}
