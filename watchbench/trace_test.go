package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// parent [0,100); children [10,40), [30,60) overlap, [90,120) reaches
	// past the parent's end, and a grandchild [15,20) belongs to child 2.
	spans := []span{
		{Trace: 1, ID: 1, Name: "session", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{Trace: 1, ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	byName := selfTimeByName(spans)
	if byName["session"] != 40 {
		t.Errorf("session self time by name %v, want 40", byName["session"])
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 10}, {0, 10}}, 0, 10, 10},
		{[][2]int64{{5, 8}, {1, 3}, {2, 4}}, 0, 10, 6},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{20, 30}}, 0, 10, 0},
	} {
		if got := covered(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if off.newID() != 0 || off.snapshot() != nil {
		t.Fatal("a nil tracer recorded something")
	}
	off.add(1, 0, "x", time.Now(), time.Now())

	tr := newTracer()
	root := tr.newID()
	t0 := tr.epoch.Add(time.Millisecond)
	tr.record(root, root, 0, "session", t0, t0.Add(3*time.Millisecond))
	child := tr.add(root, root, "client.dial", t0, t0.Add(time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].ID != child || spans[1].Parent != root || spans[0].Start != int64(time.Millisecond) {
		t.Fatalf("spans %+v", spans)
	}
	if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), spans); err != nil {
		t.Fatal(err)
	}
}
