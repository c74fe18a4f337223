package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	const u = time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100 * u},      // op
		{ID: 2, Parent: 1, Start: 10 * u, End: 40 * u},  // child
		{ID: 3, Parent: 1, Start: 30 * u, End: 60 * u},  // overlaps child 2 by 10
		{ID: 4, Parent: 1, Start: 35 * u, End: 38 * u},  // wholly inside the cover so far
		{ID: 5, Parent: 1, Start: 90 * u, End: 120 * u}, // sticks out of the parent by 20
		{ID: 6, Parent: 2, Start: 15 * u, End: 25 * u},  // grandchild: nested under 2
		{ID: 7, Parent: 6, Start: 15 * u, End: 25 * u},  // covers its parent entirely
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 40 * u, // 100 − (10..60 ∪ 90..100) = 100 − 60
		2: 20 * u, // 30 − the grandchild's 10
		3: 30 * u,
		4: 3 * u,
		5: 30 * u,
		6: 0,
		7: 10 * u,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorderAndChromeFile(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("op:Q1", "benchmark", 0, 1)
	d := rec.timed("server", "server", root, 1, func() { time.Sleep(time.Millisecond) })
	rec.end(root)
	if d < time.Millisecond {
		t.Errorf("timed span lasted %v", d)
	}
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 1 {
		t.Fatalf("spans: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, map[string][]span{"w": spans}, []string{"w"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 3 { // process name + two spans
		t.Errorf("%d events, want 3", len(file.TraceEvents))
	}
}
