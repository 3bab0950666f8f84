package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay.seq", Start: 0, End: 100},
		// Overlapping children are covered once: [10,50].
		{ID: 2, Parent: 1, Name: "gossip.read", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "peer.commit", Start: 20, End: 50},
		// A child running past its parent is clipped to [90,100].
		{ID: 4, Parent: 1, Name: "peer.commit", Start: 90, End: 120},
		// A grandchild only reduces its own parent.
		{ID: 5, Parent: 3, Name: "ledger.commit", Start: 25, End: 35},
		{ID: 6, Name: "cluster.run", Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"replay":  50,             // 100 - 40 - 10
		"gossip":  20,             // no children
		"peer":    (30 - 10) + 30, // 30 minus its 10ns grandchild, plus the whole 30ns of span 4
		"ledger":  10,
		"cluster": 60,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestTracerRecordsParentsAndNilIsOff(t *testing.T) {
	var off *tracer
	if id := off.begin("peer.commit", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.end(0)
	off.record("orderer.cut", 0, 0, time.Now(), time.Now())
	if off.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}

	tr := newTracer()
	root := tr.begin("replay.seq", 0, 3)
	child := tr.begin("peer.commit", root, 3)
	tr.end(child)
	tr.end(root)
	t0 := time.Now()
	tr.record("orderer.cut", root, 3, t0, t0.Add(time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].Parent != root || spans[1].Block != 3 || spans[1].layer() != "peer" {
		t.Errorf("child span %+v", spans[1])
	}
	if spans[0].End < spans[1].End || spans[2].End-spans[2].Start != int64(time.Millisecond) {
		t.Errorf("span intervals %+v", spans)
	}
}
