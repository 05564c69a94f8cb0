package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"adaserve/internal/experiments"
	"adaserve/internal/serve"
)

func TestWrapSystemForwardsOptionalInterfaces(t *testing.T) {
	setup := experiments.Llama70B()
	for _, kind := range []experiments.SystemKind{experiments.SysAdaServe, experiments.SysSarathi, experiments.SysVLLMSpec4} {
		sys, err := experiments.Build(kind, setup, experiments.BuildOptions{Seed: 1, Prefix: true})
		if err != nil {
			t.Fatal(err)
		}
		if same, err := wrapSystem(sys, nil); err != nil || same != sys {
			t.Errorf("%s: untraced wrap changed the system", kind)
		}
		tr := newTracer()
		w, err := wrapSystem(sys, tr)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got, want := optionalInterfaces(w), optionalInterfaces(sys); got != want {
			t.Errorf("%s: wrapper interfaces %v, system %v", kind, got, want)
		}
		if want := kind == experiments.SysAdaServe; optionalInterfaces(w)[2] != want {
			t.Errorf("%s: wrapper tunable = %v, want %v", kind, !want, want)
		}
		w.Iterate(0)
		if st := tr.stat(spanIterate); st.calls != 1 || len(st.durUS) != 1 {
			t.Errorf("%s: iterate span %+v, want one call", kind, st)
		}
	}
}

func TestWrappersAreIdentityWhenUntraced(t *testing.T) {
	src := serve.NewSubmitSource()
	if wrapSource(src, nil) != serve.Source(src) {
		t.Error("wrapSource wrapped without a tracer")
	}
	obs := serve.ObserverFunc(func(serve.Event) {})
	if _, ok := wrapObserver(obs, nil).(serve.ObserverFunc); !ok {
		t.Error("wrapObserver wrapped without a tracer")
	}
}

func TestTracerSelfTimeAndTraceFile(t *testing.T) {
	var nilTracer *tracer
	nilTracer.begin(spanRun) // a nil tracer records nothing and must not panic
	nilTracer.end()

	tr := newTracer()
	tr.recording = true
	tr.begin(spanRun)
	tr.begin(spanIterate)
	spin(2e6)
	tr.end()
	tr.begin(spanObserve)
	tr.end()
	tr.end()

	run, it, ob := tr.stat(spanRun), tr.stat(spanIterate), tr.stat(spanObserve)
	if run.calls != 1 || it.calls != 1 || ob.calls != 1 {
		t.Fatalf("calls run/iterate/observe = %d/%d/%d", run.calls, it.calls, ob.calls)
	}
	if run.self != run.total-it.total-ob.total {
		t.Errorf("run self %v != total %v - children %v, %v", run.self, run.total, it.total, ob.total)
	}
	if it.self != it.total {
		t.Errorf("leaf self %v != total %v", it.self, it.total)
	}

	var buf bytes.Buffer
	if err := tr.writeTrace(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 3", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Cat != layerOf(ev.Name) {
			t.Errorf("event %+v: want a complete event in its layer's category", ev)
		}
		if ev.Name != spanRun && ev.Args.Parent != spanRun {
			t.Errorf("event %s parent %q, want %s", ev.Name, ev.Args.Parent, spanRun)
		}
	}
}
