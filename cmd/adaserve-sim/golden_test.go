package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the adaserve-sim golden files under testdata/")

// goldenCases pins the CLI end to end: each flag set runs in-process and its
// full stdout must match testdata/<name>.golden byte for byte. "{{tmp}}" in
// an argument expands to a per-test temp dir, and the dir is folded back to
// "{{tmp}}" in the output so the goldens are path-independent.
var goldenCases = []struct {
	name string
	args string
}{
	{"default", "-duration 10"},
	{"replicas", "-replicas 4 -duration 10"},
	{"roles", "-roles 2P2D -duration 10"},
	{"autoscale", "-replicas 4 -autoscale rate-prop -rate-profile diurnal -duration 30 -live"},
	{"adaptive", "-replicas 2 -adaptive -admission -rate-profile spike -duration 20"},
	{"faults", "-replicas 4 -faults crash@3+2:r0 -recovery retry+hedge -duration 10 -live"},
	{"prefix", "-replicas 3 -prefix -router prefix-affinity -live"},
	{"spec", "-spec ../../internal/experiments/testdata/specs/bursty.spec -admission -duration 10"},
	{"live", "-live -duration 10"},
	{"export", "-rate-profile spike -export {{tmp}}/spike.trace -duration 10"},
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			args := strings.Fields(strings.ReplaceAll(c.args, "{{tmp}}", tmp))
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+".golden", strings.ReplaceAll(out.String(), tmp, "{{tmp}}"))
			if strings.Contains(c.args, "-export") {
				exported, err := os.ReadFile(filepath.Join(tmp, "spike.trace"))
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, "export.trace.golden", string(exported))
			}
		})
	}
}

// checkGolden compares got against testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden (rerun with -update only for an intended change):\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each write a non-empty
// profile and leave the report byte-identical to the default golden.
func TestProfileFlags(t *testing.T) {
	tmp := t.TempDir()
	cpu, mem := filepath.Join(tmp, "cpu.pprof"), filepath.Join(tmp, "mem.pprof")
	var out bytes.Buffer
	if err := run([]string{"-duration", "10", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "default.golden", out.String())
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written (err %v)", filepath.Base(path), err)
		}
	}
}
