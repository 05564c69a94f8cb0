package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/kvcache"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// Span names: one per seam the benchmark wraps, named <layer>.<operation>.
const (
	spanRun       = "serve.run"
	spanIterate   = "sched.iterate"
	spanRoute     = "cluster.route"
	spanSource    = "serve.source"
	spanObserve   = "obs.observe"
	spanFaults    = "faults.tick"
	spanAutoscale = "autoscale.tick"
	spanAdmit     = "adaptive.admit"
	spanCompile   = "trace.compile"
	spanGenerate  = "workload.generate"
)

// maxTraceEvents caps the spans kept for the trace-event file.
const maxTraceEvents = 100_000

// tracer records spans around the calls the benchmark makes into the
// program. Spans nest on a stack: a span's self time is its duration minus
// the time its child spans cover. A nil *tracer records nothing, so the
// untraced build paths call it unconditionally.
type tracer struct {
	origin time.Time
	stack  []openSpan
	stats  map[string]*spanStat
	// keepDurations names the spans whose every duration is kept for
	// percentiles.
	keepDurations map[string]bool
	// events are the spans kept for the trace-event file (only while
	// recording, up to maxTraceEvents).
	recording bool
	events    []traceEvent
	dropped   int
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
}

// spanStat aggregates one span name.
type spanStat struct {
	calls       int
	total, self time.Duration
	durUS       []float64
}

// traceEvent is one Chrome trace-event "complete" event (ph X); Perfetto
// and chrome://tracing nest same-thread events by time.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	// Args names the enclosing span, the one whose call caused this one.
	Args struct {
		Parent string `json:"parent,omitempty"`
	} `json:"args"`
}

func newTracer() *tracer {
	return &tracer{
		origin:        time.Now(),
		stats:         make(map[string]*spanStat),
		keepDurations: map[string]bool{spanIterate: true, spanRoute: true},
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{name: name, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	sp := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(sp.start)
	parent := ""
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].name
	}
	st := t.stats[sp.name]
	if st == nil {
		st = &spanStat{}
		t.stats[sp.name] = st
	}
	st.calls++
	st.total += d
	st.self += d - sp.child
	if t.keepDurations[sp.name] {
		st.durUS = append(st.durUS, float64(d)/float64(time.Microsecond))
	}
	if t.recording {
		if len(t.events) >= maxTraceEvents {
			t.dropped++
			return
		}
		ev := traceEvent{
			Name: sp.name, Cat: layerOf(sp.name), Ph: "X",
			TS:  float64(sp.start.Sub(t.origin)) / float64(time.Microsecond),
			Dur: float64(d) / float64(time.Microsecond),
		}
		ev.Args.Parent = parent
		t.events = append(t.events, ev)
	}
}

// stat returns the aggregate for a span name (zero when never entered).
func (t *tracer) stat(name string) spanStat {
	if st := t.stats[name]; st != nil {
		return *st
	}
	return spanStat{}
}

// layerOf returns the layer part of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeTrace writes the recorded spans as a Chrome trace-event JSON file,
// the format Perfetto opens (as adaserve-sim's -span-out files are).
func (t *tracer) writeTrace(w io.Writer, title string) error {
	doc := struct {
		TraceEvents     []traceEvent      `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		Metadata        map[string]string `json:"metadata"`
	}{
		TraceEvents:     t.events,
		DisplayTimeUnit: "ns",
		Metadata: map[string]string{
			"title":          title,
			"dropped_spans":  fmt.Sprint(t.dropped),
			"clock":          "host wall time, microseconds",
			"recorded_spans": fmt.Sprint(len(t.events)),
		},
	}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []traceEvent{}
	}
	return json.NewEncoder(w).Encode(doc)
}

// The wrappers below put spans around the program's public interfaces.
// Each forwards every optional interface the program type-asserts on the
// value it wraps, so the traced run executes the same program as the
// untraced one (the digests prove it).

// prefixSystem is the method set every sched system exposes: the System
// itself plus the prefix probe the prefix-affinity router asserts
// (cluster.PrefixProber) and the KVPrefixStats method cluster summaries
// assert.
type prefixSystem interface {
	sched.System
	cluster.PrefixProber
	KVPrefixStats() (kvcache.PrefixStats, bool)
}

type tracedSystem struct {
	prefixSystem
	tr *tracer
}

func (s *tracedSystem) Iterate(now float64) sched.IterationStats {
	s.tr.begin(spanIterate)
	st := s.prefixSystem.Iterate(now)
	s.tr.end()
	return st
}

// tracedTunable also forwards adaptive.SpecTunable, which the adaptive
// controller asserts to find the systems whose speculation it retunes.
type tracedTunable struct {
	tracedSystem
	tune adaptive.SpecTunable
}

func (s *tracedTunable) SpecEnvelope() (int, int)   { return s.tune.SpecEnvelope() }
func (s *tracedTunable) ClampSpecEnvelope(d, w int) { s.tune.ClampSpecEnvelope(d, w) }

// wrapSystem returns sys wrapped in an Iterate span, or sys itself when tr
// is nil. It fails if the wrapper would not expose exactly the optional
// interfaces sys does.
func wrapSystem(sys sched.System, tr *tracer) (sched.System, error) {
	if tr == nil {
		return sys, nil
	}
	ps, ok := sys.(prefixSystem)
	if !ok {
		return nil, fmt.Errorf("system %s lacks the prefix probe methods the wrapper forwards", sys.Name())
	}
	var out sched.System = &tracedSystem{prefixSystem: ps, tr: tr}
	if tune, ok := sys.(adaptive.SpecTunable); ok {
		out = &tracedTunable{tracedSystem: tracedSystem{prefixSystem: ps, tr: tr}, tune: tune}
	}
	if got, want := optionalInterfaces(out), optionalInterfaces(sys); got != want {
		return nil, fmt.Errorf("wrapper for %s exposes optional interfaces %v, want %v", sys.Name(), got, want)
	}
	return out, nil
}

// optionalInterfaces reports which of the interfaces the program asserts on
// a sched.System v implements.
func optionalInterfaces(v sched.System) [3]bool {
	_, prober := v.(cluster.PrefixProber)
	_, stats := v.(interface {
		KVPrefixStats() (kvcache.PrefixStats, bool)
	})
	_, tunable := v.(adaptive.SpecTunable)
	return [3]bool{prober, stats, tunable}
}

type tracedRouter struct {
	cluster.Router
	tr *tracer
}

func (r *tracedRouter) Route(req *request.Request, reps []*cluster.Replica) int {
	r.tr.begin(spanRoute)
	i := r.Router.Route(req, reps)
	r.tr.end()
	return i
}

func (r *tracedRouter) RouteDecode(req *request.Request, reps []*cluster.Replica) int {
	r.tr.begin(spanRoute)
	i := r.Router.RouteDecode(req, reps)
	r.tr.end()
	return i
}

func wrapRouter(r cluster.Router, tr *tracer) cluster.Router {
	if tr == nil {
		return r
	}
	return &tracedRouter{Router: r, tr: tr}
}

type tracedSource struct {
	serve.Source
	tr *tracer
}

func (s *tracedSource) Peek() (float64, bool) {
	s.tr.begin(spanSource)
	t, ok := s.Source.Peek()
	s.tr.end()
	return t, ok
}

func (s *tracedSource) Pop() *request.Request {
	s.tr.begin(spanSource)
	r := s.Source.Pop()
	s.tr.end()
	return r
}

func wrapSource(s serve.Source, tr *tracer) serve.Source {
	if tr == nil {
		return s
	}
	return &tracedSource{Source: s, tr: tr}
}

// tracedObserver spans one observer's event handling under name.
type tracedObserver struct {
	serve.Observer
	tr   *tracer
	name string
}

func (o *tracedObserver) OnEvent(ev serve.Event) {
	o.tr.begin(o.name)
	o.Observer.OnEvent(ev)
	o.tr.end()
}

func wrapObserver(o serve.Observer, tr *tracer) serve.Observer {
	if tr == nil {
		return o
	}
	return &tracedObserver{Observer: o, tr: tr, name: spanObserve}
}

// The controller wrappers span both of a controller's hooks: its Tick (and
// admission Decide) and its Observer method.

type tracedInjector struct {
	tracedObserver
	fi serve.FaultInjector
}

func (c *tracedInjector) Tick(now float64, q *serve.Queue) []serve.FaultAction {
	c.tr.begin(spanFaults)
	a := c.fi.Tick(now, q)
	c.tr.end()
	return a
}

func wrapInjector(fi serve.FaultInjector, tr *tracer) serve.FaultInjector {
	if tr == nil {
		return fi
	}
	return &tracedInjector{tracedObserver: tracedObserver{Observer: fi, tr: tr, name: spanFaults}, fi: fi}
}

type tracedAutoscaler struct {
	tracedObserver
	as serve.Autoscaler
}

func (c *tracedAutoscaler) Tick(now float64, q *serve.Queue) []serve.ScaleAction {
	c.tr.begin(spanAutoscale)
	a := c.as.Tick(now, q)
	c.tr.end()
	return a
}

func wrapAutoscaler(as serve.Autoscaler, tr *tracer) serve.Autoscaler {
	if tr == nil {
		return as
	}
	return &tracedAutoscaler{tracedObserver: tracedObserver{Observer: as, tr: tr, name: spanAutoscale}, as: as}
}

type tracedAdmission struct {
	tracedObserver
	ac serve.AdmissionController
}

func (c *tracedAdmission) Decide(r *request.Request) (serve.AdmissionDecision, string) {
	c.tr.begin(spanAdmit)
	d, reason := c.ac.Decide(r)
	c.tr.end()
	return d, reason
}

func (c *tracedAdmission) Tick(now float64) {
	c.tr.begin(spanAdmit)
	c.ac.Tick(now)
	c.tr.end()
}

func wrapAdmission(ac serve.AdmissionController, tr *tracer) serve.AdmissionController {
	if tr == nil {
		return ac
	}
	return &tracedAdmission{tracedObserver: tracedObserver{Observer: ac, tr: tr, name: spanAdmit}, ac: ac}
}
