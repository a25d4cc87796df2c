package main

import (
	"context"
	"testing"

	"accuracytrader/internal/wire"
)

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"overlapping children count once", []interval{{10, 30}, {20, 40}}, 70},
		{"nested child", []interval{{10, 40}, {15, 20}}, 70},
		{"children clipped to the parent", []interval{{-5, 5}, {90, 120}}, 85},
		{"child outside the parent", []interval{{100, 150}, {-20, 0}}, 100},
		{"child covers all", []interval{{-1, 101}}, 0},
		{"unsorted disjoint", []interval{{60, 70}, {10, 20}, {40, 45}}, 75},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSpanParents(t *testing.T) {
	if got := parentName(spanHandler, true); got != "fanout.call" {
		t.Errorf("handler under a frontend hangs under %q", got)
	}
	if got := parentName(spanHandler, false); got != "client.call" {
		t.Errorf("handler without a frontend hangs under %q", got)
	}
	if got := parentName(spanFanout, true); got != "client.call" {
		t.Errorf("fan-out hangs under %q", got)
	}
}

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	tr := newTracer()
	h := tr.wrapHandler(func(_ context.Context, req *wire.Request) *wire.SubReply {
		return &wire.SubReply{SetsProcessed: 7}
	})
	h(context.Background(), &wire.Request{ID: 1, Seq: 9, SLO: wire.SLOBestEffort})
	tr.on.Store(true)
	h(context.Background(), &wire.Request{ID: 2, Seq: 9, SLO: wire.SLOBestEffort})
	h(context.Background(), &wire.Request{ID: 3, Seq: 9, SLO: wire.SLOExact})
	spans := tr.all()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	for _, s := range spans {
		if s.kind != spanHandler || s.id != 9 || s.end < s.start {
			t.Errorf("bad span %+v", s)
		}
		if want := map[uint64]int64{2: 7, 3: -1}[s.sub]; s.val != want {
			t.Errorf("sub %d: val %d, want %d", s.sub, s.val, want)
		}
	}
}
