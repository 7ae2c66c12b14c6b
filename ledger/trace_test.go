package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeClock drives a lane's clock by hand.
type fakeClock struct{ now int64 }

func (c *fakeClock) at(t int64) { c.now = t }

func tracedLane() (*tracer, *lane, *fakeClock) {
	tr := newTracer()
	l := tr.lane()
	c := &fakeClock{}
	l.clock = func() int64 { return c.now }
	tr.from.Store(0)
	return tr, l, c
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// epoch [0,100) holds NextBatch [10,40) and verify [40,50); NextBatch
	// holds inner [20,25). Self times: epoch 60, NextBatch 25, inner 5,
	// verify 10.
	tr, l, c := tracedLane()
	c.at(0)
	l.begin("epoch", 1<<20)
	c.at(10)
	l.begin("live.NextBatch", 1<<20|1)
	c.at(20)
	l.begin("inner", 0)
	c.at(25)
	l.end()
	c.at(40)
	l.end()
	l.begin("verify", 1<<20|1)
	c.at(50)
	l.end()
	c.at(100)
	l.end()
	st := tr.stats()
	for name, want := range map[string]time.Duration{"epoch": 60, "live.NextBatch": 25, "inner": 5, "verify": 10} {
		if st[name].Self != want {
			t.Errorf("%s self = %v, want %v", name, st[name].Self, want)
		}
	}
	if st["epoch"].Total != 100 || st["epoch"].Count != 1 {
		t.Errorf("epoch stat = %+v", st["epoch"])
	}
	if len(l.stack) != 0 || len(l.spans) != 4 || l.spans[2].parent != 1 || l.spans[3].parent != 0 || l.spans[0].parent != -1 {
		t.Fatalf("spans %+v stack %+v", l.spans, l.stack)
	}
	if l.spans[1].req != 1<<20|1 || l.spans[1].end != 40 {
		t.Fatalf("span fields wrong: %+v", l.spans[1])
	}
}

func TestStatsOnlyCountTheWindow(t *testing.T) {
	tr, l, c := tracedLane()
	tr.from.Store(50)
	c.at(0)
	l.begin("setup", 0) // starts before the window: not counted
	c.at(60)
	l.begin("epoch", 0) // inside it: counted, and still subtracted from setup
	c.at(70)
	l.end()
	c.at(80)
	l.end()
	st := tr.stats()
	if _, ok := st["setup"]; ok || st["epoch"].Count != 1 || st["epoch"].Total != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if tr.spanCount() != 2 {
		t.Fatalf("spanCount = %d", tr.spanCount())
	}
}

func TestKeptSpansAreBoundedButAllAreCounted(t *testing.T) {
	tr, l, c := tracedLane()
	l.begin("round", 0)
	for i := 0; i < maxKeptSpans+10; i++ {
		c.at(int64(2 * i))
		l.begin("live.ReadSample", int64(i))
		c.at(int64(2*i + 1))
		l.end()
	}
	l.end()
	if len(l.spans) != maxKeptSpans || tr.spanCount() != maxKeptSpans+11 {
		t.Fatalf("kept %d spans, counted %d", len(l.spans), tr.spanCount())
	}
	st := tr.stats()
	if st["live.ReadSample"].Count != maxKeptSpans+10 || st["round"].Self != st["round"].Total-time.Duration(maxKeptSpans+10) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTracerWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	l := tr.lane()
	l.begin("epoch", 1<<20)
	l.begin("live.NextBatch", 1<<20|3)
	l.end()
	l.end()
	tr.sample(l, map[string]float64{"pipe.wire_reads": 7})
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]int   `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.OtherData["spans"] != 2 || doc.OtherData["spans_not_written"] != 0 {
		t.Fatalf("trace = %s", raw)
	}
	if doc.TraceEvents[1]["args"].(map[string]any)["parent"] != "epoch" {
		t.Fatalf("NextBatch event = %v", doc.TraceEvents[1])
	}

	// A nil tracer and lane record nothing and do not panic.
	var none *tracer
	nl := none.lane()
	nl.begin("x", 0)
	nl.end()
	none.sample(nl, nil)
	none.startWindow()
	if none.spanCount() != 0 || len(none.stats()) != 0 {
		t.Fatal("nil tracer recorded something")
	}
}
