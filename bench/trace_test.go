package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},   // 0: root
		{Start: 10, End: 30, Parent: 0},    // 1
		{Start: 20, End: 50, Parent: 0},    // 2: overlaps 1; together they cover 10..50
		{Start: 90, End: 120, Parent: 0},   // 3: sticks out; only 90..100 counts
		{Start: 22, End: 28, Parent: 2},    // 4: grandchild, not the root's business
		{Start: 200, End: 260, Parent: -1}, // 5: childless
	}
	want := []int64{100 - 40 - 10, 20, 30 - 6, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.reserve(3)
	outer, inner := tr.name("outer"), tr.name("inner")
	if tr.name("outer") != outer {
		t.Fatal("name must intern")
	}
	p := tr.begin(outer, -1, -1)
	c := tr.begin(inner, p, 7)
	tr.end(c)
	tr.end(p)
	tr.add(inner, tr.spans[p].Start, tr.spans[p].Start, p, 8)
	if n := len(tr.durations("inner")); n != 2 {
		t.Fatalf("%d inner spans, want 2", n)
	}
	self := selfTimes(tr.spans)
	if d := tr.spans[p].End - tr.spans[p].Start; self[p] != d-self[c] {
		t.Errorf("outer self %d + inner %d != outer duration %d", self[p], self[c], d)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Columns []string
		Names   []string
		Spans   [][]int64
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(f.Spans) != 3 || len(f.Names) != 2 || len(f.Columns) != 5 || f.Spans[1][3] != int64(p) || f.Spans[1][4] != 7 {
		t.Errorf("span file holds %+v", f)
	}
}
