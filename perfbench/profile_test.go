package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// rawCPU is `go tool pprof -raw` output in the shape the fold parses: a
// location with an inlined caller, a harness frame, a sample with no
// repository frame and an unlisted repository package.
const rawCPU = `PeriodType: cpu nanoseconds
Period: 10000000
Duration: 1.2
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 5
          2   20000000: 3 5
          1   10000000: 4
          4   40000000: 6 5
          1   10000000: 7 2 5
Locations
     1: 0x4a0b3c M=1 runtime.mallocgc /go/src/runtime/malloc.go:1000:0 s=900
     2: 0x4a0b4c M=1 adaserve/internal/lm.(*Dist).Indexed /repo/internal/lm/lm.go:71:0 s=60
             adaserve/internal/toktree.(*Tree).Grow /repo/internal/toktree/beam.go:95:0 s=80
     3: 0x4a0b5c M=1 main.(*tracer).begin /repo/perfbench/spans.go:90:0 s=86
     4: 0x4a0b6c M=1 runtime.bgsweep /go/src/runtime/mgcsweep.go:297:0 s=269
     5: 0x4a0b7c M=1 adaserve/internal/serve.(*Server).Run /repo/internal/serve/server.go:200:0 s=180
     6: 0x4a0b8c M=1 adaserve/internal/obs/hist.(*Histogram).Observe /repo/internal/obs/hist/hist.go:10:0 s=5
     7: 0x4a0b9c M=1 adaserve/internal/experiments.Build /repo/internal/experiments/setup.go:160:0 s=150
Mappings
1: 0x400000/0x4d1000/0x0 /bench/perfbench [FN]
`

// rawAllocs is an allocation profile: four value columns and label lines.
const rawAllocs = `PeriodType: space bytes
Period: 65536
Samples:
alloc_objects/count alloc_space/bytes[dflt] inuse_objects/count inuse_space/bytes
          1     262144          0          0: 1 2
                bytes:[262144]
          3      65536          1      16384: 3
                bytes:[16384]
Locations
     1: 0x42c758 M=1 runtime.makeslice /go/src/runtime/slice.go:116:0 s=101
     2: 0x42c768 M=1 adaserve/internal/kvcache.(*Cache).Allocate /repo/internal/kvcache/kvcache.go:10:0 s=5
     3: 0x42c778 M=1 main.(*recordingSource).Pop /repo/perfbench/workload.go:10:0 s=5
Mappings
`

func TestFoldChargesInnermostRepositoryFrame(t *testing.T) {
	got, err := fold(rawCPU, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		// The leaf is the runtime allocator; the innermost repository frame
		// is lm (the inlined beam-search caller comes after it).
		"lm":         30000000,
		"bench":      20000000,
		"runtime_gc": 10000000,
		"obs":        40000000, // a subpackage counts toward its layer
		"other":      10000000, // a repository package outside the list
	}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("fold[%s] = %d, want %d", l, got[l], v)
		}
	}

	sh := shares(got)
	if math.Abs(sh["lm"]-27.2727) > 1e-3 || sh["toktree"] != 0 {
		t.Errorf("shares = %v", sh)
	}
	total := 0.0
	for _, l := range layers {
		total += sh[l]
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100", total)
	}
}

func TestFoldReadsTheNamedColumnAndSkipsLabels(t *testing.T) {
	got, err := fold(rawAllocs, "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if got["kvcache"] != 262144 || got["bench"] != 65536 || len(got) != 2 {
		t.Errorf("alloc_space fold = %v", got)
	}
	objs, err := fold(rawAllocs, "alloc_objects")
	if err != nil {
		t.Fatal(err)
	}
	if objs["kvcache"] != 1 || objs["bench"] != 3 {
		t.Errorf("alloc_objects fold = %v", objs)
	}
	if _, err := fold(rawAllocs, "cpu"); err == nil {
		t.Error("fold of a missing value type succeeded")
	}
	if _, err := fold("garbage", "cpu"); err == nil {
		t.Error("fold of text without samples succeeded")
	}
}

func TestFuncLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"adaserve/internal/lm.(*SyntheticLM).computeDist": "lm",
		"adaserve/internal/obs/hist.New":                  "obs",
		"adaserve/internal/sim.Run":                       "other",
		"main.main":                                       "bench",
		"main.buildPrefixSessions.func1":                  "bench",
	} {
		if got, ok := funcLayer(fn); !ok || got != want {
			t.Errorf("funcLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "sort.Slice", "adaserve/cmd/x.main"} {
		if l, ok := funcLayer(fn); ok {
			t.Errorf("funcLayer(%q) = %q, want no layer", fn, l)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// TestLayerSharesFromRealProfiles runs the capture and fold end to end with
// the toolchain's pprof: CPU burnt in this package lands in the bench layer.
func TestLayerSharesFromRealProfiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	p := &profiler{dir: t.TempDir()}
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	sink = make([]byte, 1<<20)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	cpu, alloc, err := p.layerShares()
	if err != nil {
		t.Fatal(err)
	}
	if cpu["bench"] < 50 {
		t.Errorf("cpu bench share %.1f%%, want most of the profile", cpu["bench"])
	}
	if alloc["bench"] < 50 {
		t.Errorf("alloc bench share %.1f%%, want most of the profile", alloc["bench"])
	}
	files, _ := filepath.Glob(filepath.Join(p.dir, "*"))
	if len(files) != 3 {
		t.Errorf("profile files %v, want one CPU and two allocation snapshots", files)
	}
	if _, err := os.Stat(p.cpuFiles[0]); err != nil {
		t.Error(err)
	}
}

var sink []byte
