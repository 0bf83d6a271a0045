package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/primitives"
)

func TestRequestSequenceIsSeeded(t *testing.T) {
	a, b := requestSequence(7, 4), requestSequence(7, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request sequences")
	}
	if reflect.DeepEqual(a, requestSequence(8, 4)) {
		t.Error("different seeds gave the same request sequence")
	}
	seen := map[int64]bool{}
	for _, round := range a {
		searches, hits := map[string]int{}, map[string]int{}
		for _, r := range round {
			if r.Search {
				searches[r.Net]++
				if seen[r.Seed] || r.Seed <= primeKeys {
					t.Errorf("search seed %d repeats a served key", r.Seed)
				}
				seen[r.Seed] = true
			} else {
				hits[r.Net]++
				if r.Seed < 1 || r.Seed > primeKeys || r.Episodes != primeEpisodes {
					t.Errorf("hit %+v does not repeat a set-up key", r)
				}
			}
		}
		for _, sn := range serveNets {
			if searches[sn.net] != sn.searches || hits[sn.net] != sn.hits {
				t.Errorf("round has %d searches and %d hits of %s, want %d and %d",
					searches[sn.net], hits[sn.net], sn.net, sn.searches, sn.hits)
			}
		}
	}
}

// smoke sets one workload up, runs one traced round with shrink
// applied, checks its outputs, and returns every metric it reports.
func smoke(t *testing.T, w workload, shrink func(instance)) map[string]metric {
	t.Helper()
	cfg := config{workload: w.name, seed: 3, seconds: 1, trace: true, dir: ".", out: t.TempDir()}
	c := &runCtx{cfg: cfg, rounds: 1, tr: newTracer()}
	inst, err := w.setup(c)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if shrink != nil {
		shrink(inst)
	}
	s := newSampler()
	wall := timedPhase(inst, 1, s, time.Minute)
	inst.check(s)
	if s.attempted == 0 || s.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", s.failed, s.attempted, s.failures)
	}
	m := inst.layers(s, c.tr.snapshot())
	for k, v := range endToEnd([]float64{0.1}, wall, s, inst) {
		m[k] = v
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v", w.name, k, v.Value)
		}
	}
	return m
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	got := map[string]bool{}
	add := func(m map[string]metric) {
		for k := range m {
			got[k] = true
		}
	}
	add(smoke(t, zooSearch, func(inst instance) {
		z := inst.(*zooInstance)
		z.classes = []zooClass{{"lenet5", primitives.ModeCPU}, {"lenet5", primitives.ModeGPGPU}}
	}))
	add(smoke(t, engineInfer, nil))
	add(smoke(t, serveMixed, nil))

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var want, have []string
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		want = append(want, m.Name)
	}
	for k := range got {
		have = append(have, k)
	}
	sort.Strings(want)
	sort.Strings(have)
	if !reflect.DeepEqual(want, have) {
		t.Errorf("the workloads report\n%v\nBENCHMARK.json declares\n%v", have, want)
	}
}
