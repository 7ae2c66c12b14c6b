package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into a layer's public entry point, plus the benchmark's own verify
// step. Each consumer loop owns a lane. A lane keeps its first spans in
// memory for the Chrome trace written when the run ends, and folds every
// span of the measured window into per-name totals as it closes, so a
// run of millions of spans needs no more memory than one of thousands.
// Counters are sampled at the epoch, round and save boundaries (see
// phaseAcct), not at every span, so tracing a batch costs two clock
// reads.

// span is one timed call. Times are nanoseconds since the tracer's base.
type span struct {
	name   string
	start  int64
	end    int64
	parent int32 // index into the same lane's kept spans, -1 for none
	req    int64 // request id: epoch<<20|batch, or the sample index read
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	name     string
	start    int64
	kept     int32 // index into the lane's kept spans, -1 when not kept
	children int64 // time covered by the span's closed children
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count int64
	Total time.Duration
	Self  time.Duration // Total minus the time the spans' children cover
}

// maxKeptSpans is how many spans each lane keeps for the trace file: a
// thirty-second cluster-peer run records about six million, and a
// viewer needs only a window of them.
const maxKeptSpans = 50000

// lane is one goroutine's span stack. A lane is not safe for concurrent
// use; every consumer loop owns its own. Its spans nest strictly, so the
// children of an open span are closed one after another and their
// durations add up to the time they cover.
type lane struct {
	id    int
	t     *tracer
	clock func() int64
	spans []span
	stack []openSpan
	stats map[string]spanStat
	total int
}

// tracer owns every lane of a run. A nil *tracer and a nil *lane record
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	base     time.Time
	from     atomic.Int64 // start of the measured window; only spans from then on are aggregated
	mu       sync.Mutex
	lanes    []*lane
	counters []counterSample
}

// counterSample is one counter snapshot taken at a span boundary.
type counterSample struct {
	at     int64
	lane   int
	values map[string]float64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.from.Store(math.MaxInt64)
	return t
}

// startWindow marks the start of the measured window: spans that begin
// from now on count in stats.
func (t *tracer) startWindow() {
	if t != nil {
		t.from.Store(int64(time.Since(t.base)))
	}
}

func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{id: len(t.lanes), t: t, stats: make(map[string]spanStat),
		clock: func() int64 { return int64(time.Since(t.base)) }}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span nested in the lane's innermost open span.
func (l *lane) begin(name string, req int64) {
	if l == nil {
		return
	}
	now := l.clock()
	o := openSpan{name: name, start: now, kept: -1}
	if len(l.spans) < maxKeptSpans {
		parent := int32(-1)
		if n := len(l.stack); n > 0 {
			parent = l.stack[n-1].kept
		}
		o.kept = int32(len(l.spans))
		l.spans = append(l.spans, span{name: name, start: now, parent: parent, req: req})
	}
	l.stack = append(l.stack, o)
}

// end closes the lane's innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	now := l.clock()
	o := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := now - o.start
	if o.kept >= 0 {
		l.spans[o.kept].end = now
	}
	if o.start >= l.t.from.Load() {
		st := l.stats[o.name]
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - o.children)
		l.stats[o.name] = st
	}
	if n := len(l.stack); n > 0 {
		l.stack[n-1].children += d
	}
	l.total++
}

// sample records counter values at the current instant on this lane.
func (t *tracer) sample(l *lane, values map[string]float64) {
	if t == nil || l == nil {
		return
	}
	t.mu.Lock()
	t.counters = append(t.counters, counterSample{at: int64(time.Since(t.base)), lane: l.id, values: values})
	t.mu.Unlock()
}

// stats merges every lane's per-name totals over the measured window.
func (t *tracer) stats() map[string]spanStat {
	out := make(map[string]spanStat)
	if t == nil {
		return out
	}
	for _, l := range t.lanes {
		for name, st := range l.stats {
			o := out[name]
			o.Count += st.Count
			o.Total += st.Total
			o.Self += st.Self
			out[name] = o
		}
	}
	return out
}

// spanCount reports how many spans the run recorded.
func (t *tracer) spanCount() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, l := range t.lanes {
		n += l.total
	}
	return n
}

// write stores the lanes' kept spans and the counter samples as Chrome
// trace JSON (chrome://tracing, Perfetto) at path.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e event) error {
		if !first {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(e)
	}
	kept := 0
	for _, l := range t.lanes {
		kept += len(l.spans)
		for _, s := range l.spans {
			args := map[string]any{"req": s.req}
			if s.parent >= 0 {
				args["parent"] = l.spans[s.parent].name
			}
			if err := emit(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: l.id, Args: args}); err != nil {
				return err
			}
		}
	}
	for _, c := range t.counters {
		args := make(map[string]any, len(c.values))
		for k, v := range c.values {
			args[k] = v
		}
		if err := emit(event{Name: "counters", Ph: "C", Ts: float64(c.at) / 1e3, Pid: 1, Tid: c.lane, Args: args}); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, `],"otherData":{"spans":%d,"spans_not_written":%d}}`+"\n", t.spanCount(), t.spanCount()-kept); err != nil {
		return err
	}
	return w.Flush()
}
