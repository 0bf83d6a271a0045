package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/primitives"
)

// The committed plans are what the generator produces today: the
// search behind them is seeded, so regenerating gives the same names.
func TestFrozenPlansRegenerate(t *testing.T) {
	set, err := loadFrozen(frozenFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range set.Networks {
		plans, err := searchFrozenPlans(fn.Network)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range fn.Plans {
			var names []string
			for _, id := range plans[fp.Kind] {
				names = append(names, primitives.ByID(id).Name)
			}
			if !reflect.DeepEqual(names, fp.Primitives) {
				t.Errorf("%s/%s: regenerated plan differs from the frozen one", fn.Network, fp.Kind)
			}
		}
	}
}

func TestLoadFrozenFailsLoudly(t *testing.T) {
	data, err := os.ReadFile(frozenFile)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*frozenSet){
		"unknown primitive": func(s *frozenSet) { s.Networks[0].Plans[1].Primitives[2] = "no-such-primitive" },
		"short plan":        func(s *frozenSet) { p := &s.Networks[0].Plans[0]; p.Primitives = p.Primitives[1:] },
		"other settings":    func(s *frozenSet) { s.Settings.Episodes++ },
		"unknown network":   func(s *frozenSet) { s.Networks[0].Network = "no-such-net" },
	} {
		var set frozenSet
		if err := json.Unmarshal(data, &set); err != nil {
			t.Fatal(err)
		}
		mutate(&set)
		path := filepath.Join(t.TempDir(), "plans.json")
		out, _ := json.Marshal(set)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadFrozen(path); err == nil {
			t.Errorf("%s: loadFrozen accepted the file", name)
		}
	}
}

func TestFrozenPlanGPUPrimitiveIsNotExecutable(t *testing.T) {
	net := models.MustBuild("lenet5")
	eng, in := newEngine(net)
	fp := frozenPlan{Primitives: make([]string, net.Len())}
	for i := range fp.Primitives {
		fp.Primitives[i] = primitives.PVanilla.Name
	}
	fp.Primitives[1] = primitives.PCuDNNConv.Name
	a, err := fp.assignment(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(a, in); err == nil || !strings.Contains(err.Error(), "GPU") {
		t.Errorf("running a GPU primitive: err = %v, want the engine's GPU error", err)
	}
}

func TestOutputError(t *testing.T) {
	ref := []float32{1, -4, 2}
	if d := outputError([]float32{1, -4, 2}, ref); d != 0 {
		t.Errorf("identical outputs: error %v", d)
	}
	if d := outputError([]float32{1, -4.004, 2}, ref); d < 0.0009 || d > 0.0011 {
		t.Errorf("error relative to max|ref| = %v, want 0.001", d)
	}
	if d := outputError([]float32{1}, ref); !(d > outputTolerance) {
		t.Error("a length mismatch must fail the tolerance")
	}
}
