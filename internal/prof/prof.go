// Package prof writes the Go runtime profiles the command-line tools take
// through their -cpuprofile and -memprofile flags, for `go tool pprof`.
package prof

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath when it is non-empty. The returned
// stop ends it and, when memPath is non-empty, writes the allocation profile
// of the whole process there. Call stop once, after the work to profile.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeAllocs(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocs writes the allocation profile to path, after a collection so
// it is up to date.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
}
