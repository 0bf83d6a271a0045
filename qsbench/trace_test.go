package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children count once: [10,50) covers 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "a", Start: 70, End: 80},
		// A child running past its parent is clipped: [90,100) covers 10.
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 6, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10 - 10, 2: 20, 3: 30 - 10, 4: 10, 5: 30, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
	secs, count := layerTotals(spans)
	if count["a"] != 2 || math.Abs(secs["a"]-30e-9) > 1e-18 {
		t.Errorf("layer a: %d spans, %v s; want 2 spans, 3e-08 s", count["a"], secs["a"])
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.begin("op", 0, 1), 1, func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Error("a nil tracer must run the call and record nothing")
	}
	tr = newTracer()
	root := tr.begin("op", 0, 1)
	tr.do("child", root, 1, func() {})
	open := tr.begin("unfinished", 0, 1)
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != root || open == 0 {
		t.Errorf("snapshot = %+v, want the two closed spans with the child under the root", got)
	}
}
