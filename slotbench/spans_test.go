package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 30, parent: 0},
		{start: 50, end: 60, parent: 0},
		{start: 12, end: 20, parent: 1}, // grandchild: charged to span 1 only
	}
	got := selfTimes(spans)
	want := []int64{70, 12, 10, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimeChildrenOverlappingParentEdges(t *testing.T) {
	spans := []span{
		{start: 100, end: 200, parent: -1},
		{start: 90, end: 120, parent: 0},  // starts before the parent: 20 inside
		{start: 180, end: 230, parent: 0}, // ends after the parent: 20 inside
		{start: 110, end: 130, parent: 0}, // overlaps the first child by 10
		{start: 300, end: 400, parent: 0}, // wholly outside: nothing inside
	}
	got := selfTimes(spans)
	// Covered inside [100,200]: [100,130] and [180,200] = 50.
	if got[0] != 50 {
		t.Errorf("parent self = %d, want 50", got[0])
	}
}

func TestSelfTimeChildCoversParent(t *testing.T) {
	spans := []span{
		{start: 0, end: 10, parent: -1},
		{start: -5, end: 15, parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("self = %d, want 0", got)
	}
}

func TestRecorderNestsAndClosesAfterPanic(t *testing.T) {
	r := newRecorder(time.Now())
	if r.begin(spanSeedHandle) != -1 {
		t.Fatal("recorder off must not record")
	}
	r.on = true
	outer := r.begin(spanSeedHandle)
	inner := r.begin(spanSend)
	_ = inner
	r.end(outer) // as after a recovered panic: inner never ended
	if len(r.open) != 0 {
		t.Fatalf("open stack = %v, want empty", r.open)
	}
	if r.spans[1].parent != 0 || r.spans[1].end == 0 {
		t.Errorf("inner span = %+v, want parent 0 and closed", r.spans[1])
	}
	var tot spanTotals
	tot.add(r.spans)
	if tot.count[spanSeedHandle] != 1 || tot.count[spanSend] != 1 {
		t.Errorf("counts = %v", tot.count)
	}
}
