package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lut"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/primitives"
	"repro/internal/profile"
	"repro/internal/searchplan"
	"repro/internal/serve"
)

// serveMixed is the only workload that exercises serve, runner.Flight,
// the worker pool and the plan store: two closed-loop clients send
// POST /v1/optimize with wait:true to an in-process server. Writes
// (a search, its checkpoints, then a plan write) run beside reads
// (plan-cache hits).
var serveMixed = workload{
	name:         "serve-mixed",
	nominalRound: 330 * time.Millisecond,
	// The search class gets at least 10 samples beyond its p90.
	minRounds: (minSamplesFor(0.9, 10) + searchesPerRound() - 1) / searchesPerRound(),
	setup:     setupServe,
}

const (
	serveClients = 2
	serveMode    = "gpgpu"
	// Hits repeat keys the set-up served with a short search budget:
	// a hit's cost depends on the plan's size, not on its episodes.
	primeKeys     = 2
	primeEpisodes = 100
	// searchEpisodes is a fifth of the server's default budget: two
	// checkpoints at the default cadence, about a third of a search
	// request's time. Cheaper searches give each run enough samples for
	// a steady p90: on the reference host a single-threaded search's
	// latency varies by tens of percent from op to op.
	searchEpisodes = 200
	// checkpointReplays is how many of the run's searches a traced run
	// replays in-process to split search time from checkpoint time.
	checkpointReplays = 5
)

// serveNets gives each network's searches and hits per round. The
// classes are search and hit, by the response's cached flag; the
// weights keep each class's p50 and p90 inside one network's latency
// range instead of on the boundary between two, where a percentile
// jumps from run to run. Search cost ranks lenet5 (tens of ms) below
// resnet18 and squeezenet, then mobilenet-v1-025 (about half a second,
// two thirds of it checkpoint marshalling); hit cost follows the
// plan's size.
var serveNets = []struct {
	net            string
	searches, hits int
}{
	{"lenet5", 2, 3},
	{"mobilenet-v1-025", 1, 3},
	{"squeezenet", 1, 3},
	{"resnet18", 1, 3},
}

func searchesPerRound() int {
	n := 0
	for _, s := range serveNets {
		n += s.searches
	}
	return n
}

// serveReq is one request of the seeded sequence.
type serveReq struct {
	Net      string
	Seed     int64
	Episodes int
	Search   bool // the class the sequence intends; the server decides
}

func (r serveReq) wire() serve.OptimizeRequest {
	return serve.OptimizeRequest{Network: r.Net, Mode: serveMode, Episodes: float64(r.Episodes), Seed: r.Seed, Wait: true}
}

// requestSequence builds the seeded request sequence: per round every
// network's searches with fresh seeds and its hits on set-up keys,
// shuffled.
func requestSequence(seed int64, rounds int) [][]serveReq {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	out := make([][]serveReq, rounds)
	for r := range out {
		var round []serveReq
		for _, sn := range serveNets {
			for i := 0; i < sn.searches; i++ {
				s := primeKeys + 1 + rng.Int63n(1<<40)
				for used[s] {
					s = primeKeys + 1 + rng.Int63n(1<<40)
				}
				used[s] = true
				round = append(round, serveReq{Net: sn.net, Seed: s, Episodes: searchEpisodes, Search: true})
			}
			for i := 0; i < sn.hits; i++ {
				round = append(round, serveReq{Net: sn.net, Seed: 1 + rng.Int63n(primeKeys), Episodes: primeEpisodes})
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out[r] = round
	}
	return out
}

type serveInstance struct {
	c        *runCtx
	seq      [][]serveReq
	srv      *serve.Server
	httpSrv  *http.Server
	serveErr chan error
	url      string
	client   *http.Client
	storeDir string
	opSeq    atomic.Int64

	mu         sync.Mutex
	served     map[serveReq][][]byte // plan bytes per response
	searchMs   []float64             // served plans' predicted latency
	searchLat  map[serveReq]float64  // search-class request latency, ms
	netLat     map[string][]float64  // latency by "<class>/<network>", ms
	mismatched int                   // responses whose class differs from the intent
	startStat  serve.Statusz
	endStat    serve.Statusz
	storeKB    float64
	storePlans int
}

func setupServe(c *runCtx) (instance, error) {
	x := &serveInstance{c: c, served: map[serveReq][][]byte{}, searchLat: map[serveReq]float64{}, netLat: map[string][]float64{}}
	var err error
	if x.storeDir, err = os.MkdirTemp(c.cfg.out, "serve-store-"); err != nil {
		return nil, err
	}
	cfg := serve.Config{PlanStore: x.storeDir}
	if c.tr != nil {
		cfg.Profile = tracedProfile(c.tr)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		_ = os.RemoveAll(x.storeDir) // scratch state under the build directory
		return nil, err
	}
	x.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		_ = os.RemoveAll(x.storeDir) // scratch state under the build directory
		return nil, err
	}
	x.url = "http://" + ln.Addr().String()
	x.httpSrv = &http.Server{Handler: srv.Handler()}
	x.serveErr = make(chan error, 1)
	go func() { x.serveErr <- x.httpSrv.Serve(ln) }()
	x.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	// Prime one LUT per network and the keys the hits repeat.
	for _, sn := range serveNets {
		for k := int64(1); k <= primeKeys; k++ {
			req := serveReq{Net: sn.net, Seed: k, Episodes: primeEpisodes}
			if _, _, err := x.post(req); err != nil {
				x.close()
				return nil, fmt.Errorf("priming %s: %w", sn.net, err)
			}
		}
	}
	x.seq = requestSequence(c.cfg.seed, c.rounds)
	if x.startStat, err = x.statusz(); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

// tracedProfile is the server's default simulator profiler, making the
// same public calls, inside a span.
func tracedProfile(tr *tracer) serve.ProfileFunc {
	return func(ctx context.Context, n *nn.Network, board *platform.Platform, mode primitives.Mode, samples int) (*lut.Table, *profile.Report, error) {
		id := tr.begin("profile.RunFallible", 0, 0)
		defer tr.end(id)
		return profile.RunFallible(ctx, n, profile.AsFallible(profile.NewSimSource(n, board)), profile.Options{Mode: mode, Samples: samples})
	}
}

// post sends one request and returns the decoded envelope.
func (x *serveInstance) post(r serveReq) (*serve.OptimizeResponse, time.Duration, error) {
	body, err := json.Marshal(r.wire())
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := x.client.Post(x.url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var or serve.OptimizeResponse
	if err := json.Unmarshal(data, &or); err != nil {
		return nil, d, err
	}
	if or.State != "done" || len(or.Plan) == 0 {
		return nil, d, fmt.Errorf("state %q without a plan: %s", or.State, or.Error)
	}
	return &or, d, nil
}

func (x *serveInstance) statusz() (serve.Statusz, error) {
	var st serve.Statusz
	resp, err := x.client.Get(x.url + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// round sends one round of the sequence from the two closed-loop
// clients: one sends the round's searches in sequence order, the other
// its hits, so reads run beside a write. Searches never queue behind
// each other: when both clients drew from one queue, two searches
// often filled both CPUs and a hit waited for the scheduler, and the
// hit class's p90 moved 27 % between consecutive runs of one seed
// (1000-episode searches on the reference host; 11 % when split).
func (x *serveInstance) round(r int, s *sampler) {
	var wg sync.WaitGroup
	for _, search := range []bool{true, false} {
		wg.Add(1)
		go func(search bool) {
			defer wg.Done()
			for _, req := range x.seq[r] {
				if req.Search == search {
					x.one(req, s)
				}
			}
		}(search)
	}
	wg.Wait()
}

func (x *serveInstance) one(req serveReq, s *sampler) {
	op := int(x.opSeq.Add(1))
	id := x.c.tr.begin("POST /v1/optimize", 0, op)
	or, d, err := x.post(req)
	x.c.tr.end(id)
	class := "search"
	if err == nil && or.Cached {
		class = "hit"
	}
	s.record(class, d, err)
	if err != nil {
		return
	}
	var plan serve.PlanResponse
	if err := json.Unmarshal(or.Plan, &plan); err != nil {
		s.fail(fmt.Sprintf("%s seed %d: plan does not parse: %v", req.Net, req.Seed, err))
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.served[req] = append(x.served[req], or.Plan)
	x.netLat[class+"/"+req.Net] = append(x.netLat[class+"/"+req.Net], d.Seconds()*1e3)
	if or.Cached == req.Search {
		x.mismatched++
	}
	if class == "search" {
		x.searchMs = append(x.searchMs, plan.Seconds*1e3)
		x.searchLat[req] = d.Seconds() * 1e3
	}
}

// check compares every served plan, byte for byte, with the plan
// serve.ReferencePlan computes in-process for the same request.
func (x *serveInstance) check(s *sampler) {
	var err error
	if x.endStat, err = x.statusz(); err != nil {
		s.fail(fmt.Sprintf("statusz: %v", err))
	}
	x.storeKB, x.storePlans = dirKB(filepath.Join(x.storeDir, "plans"))
	reqs := make([]serveReq, 0, len(x.served))
	for r := range x.served {
		reqs = append(reqs, r)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				_, ref, err := serve.ReferencePlan(context.Background(), r.wire(), core.DefaultSnapshotEvery)
				x.mu.Lock()
				for _, got := range x.served[r] {
					switch {
					case err != nil:
						s.fail(fmt.Sprintf("reference plan for %s seed %d: %v", r.Net, r.Seed, err))
					case !bytes.Equal(got, ref):
						s.fail(fmt.Sprintf("served plan for %s seed %d differs from serve.ReferencePlan", r.Net, r.Seed))
					}
				}
				x.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// dirKB sums the sizes of the regular files in dir.
func dirKB(dir string) (kb float64, files int) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			kb += float64(info.Size()) / 1024
			files++
		}
		return nil
	})
	return kb, files
}

func (x *serveInstance) planMS() float64 { return geomean(x.searchMs) }

// layers reports the two latency classes, the server's counters over
// the timed phase, and a split of search time: the run's first
// searches are replayed in-process, plain and with serve's checkpoint
// cadence and marshalling; the rest of those requests' served latency
// is HTTP, admission, queueing, the store writes and contention with
// the other client.
func (x *serveInstance) layers(s *sampler, spans []span) map[string]metric {
	secs, count := layerTotals(spans)
	plainMs, ckptMs, ckptKB, restMs := x.replayCheckpoints()
	d := func(f func(serve.Statusz) int64) float64 { return float64(f(x.endStat) - f(x.startStat)) }
	hits := d(func(st serve.Statusz) int64 { return st.PlanCacheHits })
	lookups := hits + d(func(st serve.Statusz) int64 { return st.PlanStoreHits + st.PlanCacheMisses })
	return map[string]metric{
		"serve.hit_ms_p50":              {median(s.byClass["hit"]), "ms"},
		"serve.search_ms_p50":           {median(s.byClass["search"]), "ms"},
		"core.checkpoint_ms_per_search": {ckptMs - plainMs, "ms"},
		"core.checkpoint_kb_per_search": {ckptKB, "KB"},
		"serve.rest_ms_per_search":      {restMs, "ms"},
		"profile.ms_per_lut":            {secs["profile.RunFallible"] * 1e3 / float64(count["profile.RunFallible"]), "ms"},
		"serve.plan_cache_hit_share":    {hits / lookups, "ratio"},
		"serve.searches":                {d(func(st serve.Statusz) int64 { return st.Searches }), "count"},
		"serve.coalesced":               {d(func(st serve.Statusz) int64 { return st.Coalesced }), "count"},
		"runner.lut_builds":             {float64(x.endStat.LUTCacheMisses), "count"},
		"store.kb_per_plan":             {x.storeKB / float64(x.storePlans), "KB"},
	}
}

// replayCheckpoints replays the first searches of the sequence and
// returns per-search means of the plain search time, the checkpointed
// search time, the marshalled snapshot bytes, and the served latency
// beyond the checkpointed search.
func (x *serveInstance) replayCheckpoints() (plainMs, ckptMs, kb, restMs float64) {
	tr := x.c.tr
	var n int
	board, _ := platform.Preset("tx2-like")
	for _, round := range x.seq {
		for _, r := range round {
			if !r.Search || n == checkpointReplays {
				continue
			}
			n++
			nw := models.MustBuild(r.Net)
			tab, err := profile.Run(nw, profile.NewSimSource(nw, board), profile.DefaultOptions(primitives.ModeGPGPU))
			if err != nil {
				return math.NaN(), math.NaN(), math.NaN(), math.NaN()
			}
			p := searchplan.Compile(tab)
			cfg := core.Config{Episodes: r.Episodes, Seed: r.Seed}
			t0 := time.Now()
			tr.do("replay core.SearchPlanned", 0, 0, func() { core.SearchPlanned(p, cfg) })
			t1 := time.Now()
			var bytesOut int
			save := func(snap *core.Snapshot) error {
				b, err := snap.Marshal()
				bytesOut += len(b)
				return err
			}
			tr.do("replay core.SearchCheckpointedPlanned", 0, 0, func() {
				_, _, err = core.SearchCheckpointedPlanned(p, cfg, core.DurableOptions{Every: core.DefaultSnapshotEvery, Save: save})
			})
			t2 := time.Now()
			x.mu.Lock()
			served, ok := x.searchLat[r]
			x.mu.Unlock()
			if err != nil || !ok {
				return math.NaN(), math.NaN(), math.NaN(), math.NaN()
			}
			plainMs += t1.Sub(t0).Seconds() * 1e3
			ckptMs += t2.Sub(t1).Seconds() * 1e3
			kb += float64(bytesOut) / 1024
			restMs += served - t2.Sub(t1).Seconds()*1e3
		}
	}
	k := float64(n)
	return plainMs / k, ckptMs / k, kb / k, restMs / k
}

func (x *serveInstance) describe(rec map[string]any) {
	rec["clients"] = serveClients
	rec["loop"] = "closed"
	rec["store_fs"] = fsType(filepath.Dir(x.storeDir))
	rec["class_mismatched"] = x.mismatched
	rec["distinct_keys"] = len(x.served)
	byNet := map[string]float64{}
	for k, v := range x.netLat {
		byNet[k] = median(v)
	}
	rec["class_network_p50_ms"] = byNet
}

func (x *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if x.httpSrv != nil {
		_ = x.httpSrv.Shutdown(ctx) // the run is over; a slow close only delays exit
		if err := <-x.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "qsbench: serve:", err)
		}
	}
	x.client.CloseIdleConnections()
	x.srv.Drain(10 * time.Second)
	_ = os.RemoveAll(x.storeDir) // scratch state under the build directory
}
