package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the profile buckets: the packages under internal/ the per-layer
// table reports, plus the benchmark's own code (bench), repository packages
// not listed (other) and samples with no repository frame at all
// (runtime_gc: background GC, scavenging, the scheduler).
var layers = []string{
	"lm", "toktree", "core", "engine", "sched", "kvcache", "gpu", "request",
	"serve", "cluster", "faults", "autoscale", "adaptive", "metrics", "obs",
	"trace", "workload", "mathutil", "bench", "other", "runtime_gc",
}

// profiler captures, into dir, a CPU profile of a pass and
// allocation-profile snapshots around it. The pass's set-up and yardstick
// runs between simulations (a few percent, charged to bench and the set-up
// packages) fall inside the profile too.
type profiler struct {
	dir       string
	n         int
	cpu       *os.File
	cpuFiles  []string
	allocPre  []string
	allocPost []string
}

// start snapshots allocations and starts a CPU profile.
func (p *profiler) start() error {
	p.n++
	pre := filepath.Join(p.dir, fmt.Sprintf("allocs-%03d-pre.pb.gz", p.n))
	if err := writeAllocs(pre); err != nil {
		return err
	}
	p.allocPre = append(p.allocPre, pre)
	name := filepath.Join(p.dir, fmt.Sprintf("cpu-%03d.pb.gz", p.n))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	p.cpuFiles = append(p.cpuFiles, name)
	return nil
}

// stop ends the CPU profile and snapshots allocations again.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	post := filepath.Join(p.dir, fmt.Sprintf("allocs-%03d-post.pb.gz", p.n))
	if err := writeAllocs(post); err != nil {
		return err
	}
	p.allocPost = append(p.allocPost, post)
	return nil
}

// writeAllocs writes the cumulative allocation profile. The forced GC
// publishes every allocation made so far into it.
func writeAllocs(name string) error {
	runtime.GC()
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerShares folds the captured profiles by layer: CPU time shares, and
// allocated-byte shares of the allocations made while profiling (post
// snapshots minus pre snapshots). Values are percentages.
func (p *profiler) layerShares() (cpu, alloc map[string]float64, err error) {
	cpuRaw, err := pprofRaw(p.cpuFiles)
	if err != nil {
		return nil, nil, err
	}
	cpuByLayer, err := fold(cpuRaw, "cpu")
	if err != nil {
		return nil, nil, err
	}
	preRaw, err := pprofRaw(p.allocPre)
	if err != nil {
		return nil, nil, err
	}
	postRaw, err := pprofRaw(p.allocPost)
	if err != nil {
		return nil, nil, err
	}
	pre, err := fold(preRaw, "alloc_space")
	if err != nil {
		return nil, nil, err
	}
	post, err := fold(postRaw, "alloc_space")
	if err != nil {
		return nil, nil, err
	}
	for l, v := range pre {
		post[l] -= v
	}
	return shares(cpuByLayer), shares(post), nil
}

// pprofRaw merges profiles with `go tool pprof -raw` and returns its text.
func pprofRaw(files []string) (string, error) {
	args := append([]string{"tool", "pprof", "-raw", "-symbolize=none"}, files...)
	cmd := exec.Command("go", args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errOut.String()))
	}
	return out.String(), nil
}

// shares converts per-layer totals to percentages of their sum.
func shares(byLayer map[string]int64) map[string]float64 {
	var total int64
	for _, v := range byLayer {
		total += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 100 * ratio(float64(byLayer[l]), float64(total))
	}
	return out
}

// fold parses `go tool pprof -raw` output and sums the named sample value
// ("cpu", "alloc_space", ...) by layer. Each sample is charged to the
// innermost repository frame of its stack, inlined frames included.
func fold(raw, valueType string) (map[string]int64, error) {
	type sample struct {
		value int64
		locs  []int
	}
	var (
		samples  []sample
		locFuncs = map[int][]string{}
		column   = -1
		section  string
		lastLoc  = -1
	)
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		trimmed := strings.TrimSpace(sc.Text())
		switch trimmed {
		case "Samples:", "Locations", "Mappings":
			section = trimmed
			continue
		}
		switch section {
		case "Samples:":
			if column < 0 {
				// The header names the value columns: "samples/count cpu/nanoseconds".
				for i, f := range strings.Fields(trimmed) {
					if name, _, _ := strings.Cut(f, "/"); name == valueType {
						column = i
					}
				}
				if column < 0 {
					return nil, fmt.Errorf("profile has no %q values (header %q)", valueType, trimmed)
				}
				continue
			}
			head, tail, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue
			}
			vals := strings.Fields(head)
			if column >= len(vals) {
				continue
			}
			v, err := strconv.ParseInt(vals[column], 10, 64)
			if err != nil {
				continue // a label line such as "bytes:[64]"
			}
			var locs []int
			for _, f := range strings.Fields(tail) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("bad location id %q in sample %q", f, trimmed)
				}
				locs = append(locs, id)
			}
			samples = append(samples, sample{value: v, locs: locs})
		case "Locations":
			// "12: 0x4a0b3c M=1 pkg.Func /file.go:10:0 s=5", then one
			// indented "pkg.Caller /file.go:20:0 s=7" line per inlined caller.
			fields := strings.Fields(trimmed)
			if len(fields) == 0 {
				continue
			}
			if id, ok := strings.CutSuffix(fields[0], ":"); ok {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("bad location line %q", trimmed)
				}
				lastLoc = n
				if len(fields) >= 4 {
					locFuncs[n] = append(locFuncs[n], fields[3])
				}
				continue
			}
			if lastLoc >= 0 {
				locFuncs[lastLoc] = append(locFuncs[lastLoc], fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if column < 0 {
		return nil, fmt.Errorf("no samples section in profile")
	}
	out := make(map[string]int64)
	for _, s := range samples {
		out[sampleLayer(s.locs, locFuncs)] += s.value
	}
	return out, nil
}

// sampleLayer walks a stack leaf first and returns the layer of the first
// repository frame.
func sampleLayer(locs []int, locFuncs map[int][]string) string {
	for _, id := range locs {
		for _, fn := range locFuncs[id] {
			if l, ok := funcLayer(fn); ok {
				return l
			}
		}
	}
	return "runtime_gc"
}

// funcLayer maps a symbol to its layer: adaserve/internal/<pkg>[/sub].Func
// to pkg (when listed, else other), and the benchmark's own package (main in
// the binary, adaserve/perfbench in its tests) to bench. ok is false for
// frames outside the repository.
func funcLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "adaserve/perfbench.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, "adaserve/internal/")
	if !ok {
		return "", false
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}
