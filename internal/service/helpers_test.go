package service

import (
	"errors"
	"testing"
	"time"
)

func TestCompleteAndSnapshot(t *testing.T) {
	ok := []SubResult{
		{Subset: 0, Value: "a", Latency: time.Millisecond, Hedged: true},
		{Subset: 1, Value: "b", Latency: 2 * time.Millisecond},
	}
	if !Complete(ok) {
		t.Fatal("clean sub-results reported incomplete")
	}
	for _, bad := range [][]SubResult{
		{{Subset: 0, Value: "a"}, {Subset: 1, Err: errors.New("x"), Value: "b"}},
		{{Subset: 0, Value: "a"}, {Subset: 1, Skipped: true}},
		{{Subset: 0, Value: "a"}, {Subset: 1}}, // nil value
	} {
		if Complete(bad) {
			t.Fatalf("incomplete sub-results %+v reported complete", bad)
		}
	}
	snap := Snapshot(ok)
	if len(snap) != 2 || snap[0].Value != "a" || snap[1].Value != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Per-execution transport facts must not survive into a cache entry.
	for i, sr := range snap {
		if sr.Latency != 0 || sr.Hedged || sr.Subset != i {
			t.Fatalf("snapshot[%d] keeps execution facts: %+v", i, sr)
		}
	}
}
