package main

import (
	"context"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around the calls into each layer. The spans of
// one request share its X-Request-ID.
type span struct {
	layer  string // client, fleet, server, backend or rung
	name   string // route, backend method or rung name
	req    string // X-Request-ID
	label  string // X-Cache outcome
	parent int32  // enclosing span's index, -1 for none
	lane   int32  // load-generator lane, for the exported trace
	start  time.Duration
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in a slice allocated up front, so recording costs an
// atomic increment and a struct store. Spans past its capacity are counted
// and dropped. Each span is written by the goroutine that made the call and
// read only after the phase has stopped. A slot is never handed out twice,
// so a span still open across reset (a fleet health probe, say) finishes
// into its own slot.
type recorder struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	from    int64 // first slot of the current window; see reset
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// since converts an offset from another clock's epoch to the recorder's.
func (r *recorder) since(epoch time.Time, d time.Duration) time.Duration {
	return epoch.Add(d).Sub(r.epoch)
}

// add stores s and returns its index, or -1 when the buffer is full.
func (r *recorder) add(s span) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = s
	return int32(i)
}

// finish closes span i now with the given outcome label.
func (r *recorder) finish(i int32, label string) {
	if i < 0 {
		return
	}
	r.spans[i].end = r.now()
	r.spans[i].label = label
}

// reset starts a new window: all then leaves out every span taken before,
// so set-up traffic stays out of the phase.
func (r *recorder) reset() {
	r.from = min(r.n.Load(), int64(len(r.spans)))
	r.dropped.Store(0)
}

// all is the current window's spans. A span's parent is an index into
// r.spans, not into this slice.
func (r *recorder) all() []span {
	return r.spans[r.from:min(int(r.n.Load()), len(r.spans))]
}

// time records f as a top-level rung span and returns its duration.
func (r *recorder) time(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.add(span{layer: "rung", name: name, parent: -1, lane: rungLane,
		start: r.since(start, 0), end: r.since(start, d)})
	return d, err
}

// parentKey carries a handler span's index down to the backend span. The
// runner's flight context is derived with context.WithoutCancel, which
// keeps values, so the link survives into the flight goroutine.
type parentKey struct{}

// tracedHandler records a span around every request a handler serves.
type tracedHandler struct {
	next  http.Handler
	rec   *recorder
	layer string
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i := h.rec.add(span{layer: h.layer, name: r.URL.Path, req: r.Header.Get("X-Request-ID"),
		parent: -1, start: h.rec.now()})
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), parentKey{}, i)))
	h.rec.finish(i, w.Header().Get("X-Cache"))
}

// tracedBackend times the simulation backend a server calls on a miss.
type tracedBackend struct {
	server.SimBackend
	rec *recorder
}

func (b tracedBackend) begin(ctx context.Context, name string) int32 {
	parent, ok := ctx.Value(parentKey{}).(int32)
	if !ok {
		parent = -1
	}
	s := span{layer: "backend", name: name, parent: parent, start: b.rec.now()}
	if parent >= 0 {
		s.req = b.rec.spans[parent].req
	}
	return b.rec.add(s)
}

func (b tracedBackend) Run(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
	i := b.begin(ctx, "Run")
	defer b.rec.finish(i, "")
	return b.SimBackend.Run(ctx, cfg)
}

func (b tracedBackend) Reports(ctx context.Context, s experiments.Scale, ids []string) ([]*experiments.Report, error) {
	i := b.begin(ctx, "Reports")
	defer b.rec.finish(i, "")
	return b.SimBackend.Reports(ctx, s, ids)
}

// Trace lanes that are not load-generator lanes.
const (
	rungLane       = 1000
	backgroundLane = 1001 // spans no client sent, e.g. the fleet's health probes
)

// writeChromeTrace exports the spans once as Chrome trace_event JSON, through
// the same writer the simulator's -trace-out uses. Server-side spans are
// drawn on the lane of the client request they served, so each lane shows
// its requests nested client > fleet > server > backend.
func (r *recorder) writeChromeTrace(path string) error {
	spans := r.all()
	laneOf := map[string]int32{}
	for _, s := range spans {
		if s.layer == "client" {
			laneOf[s.req] = s.lane
		}
	}
	sink := telemetry.NewTraceSink()
	named := map[int32]bool{}
	events := make([]telemetry.TraceEvent, 0, len(spans))
	for _, s := range spans {
		tid := s.lane
		if s.layer != "client" && s.layer != "rung" {
			l, ok := laneOf[s.req]
			if !ok {
				l = backgroundLane
			}
			tid = l
		}
		named[tid] = true
		args := map[string]any{}
		if s.req != "" {
			args["request_id"] = s.req
		}
		if s.label != "" {
			args["cache"] = s.label
		}
		events = append(events, telemetry.TraceEvent{
			Name: s.layer + " " + s.name, Cat: s.layer, Ph: "X",
			Ts: s.start.Microseconds(), Dur: max(s.dur().Microseconds(), 1),
			Pid: 1, Tid: int(tid), Args: args,
		})
	}
	tids := make([]int, 0, len(named))
	for t := range named {
		tids = append(tids, int(t))
	}
	sort.Ints(tids)
	for _, t := range tids {
		name := "lane " + strconv.Itoa(t)
		switch t {
		case rungLane:
			name = "rungs"
		case backgroundLane:
			name = "background"
		}
		sink.Emit(telemetry.TraceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: t,
			Args: map[string]any{"name": name}})
	}
	// Parents before children at equal timestamps, so viewers nest them.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Dur > events[j].Dur
	})
	for _, ev := range events {
		sink.Emit(ev)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sink.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
