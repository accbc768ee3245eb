package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtimeDelta is the process's resource use over one round. Client
// and daemon share the process, so these cover both.
type runtimeDelta struct {
	cpu     time.Duration // user + system
	gcPause time.Duration
	mallocs uint64
	peakRSS float64 // MB, high-water mark at the later reading
}

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeDelta{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause: time.Duration(ms.PauseTotalNs),
		mallocs: ms.Mallocs,
		peakRSS: vmHWM(),
	}
}

func (b runtimeDelta) sub(a runtimeDelta) runtimeDelta {
	return runtimeDelta{cpu: b.cpu - a.cpu, gcPause: b.gcPause - a.gcPause, mallocs: b.mallocs - a.mallocs, peakRSS: b.peakRSS}
}

// vmHWM reads the peak resident set from /proc/self/status, in MB; 0
// where the kernel does not provide it.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
