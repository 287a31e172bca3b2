package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the process's resident set every interval until stopped.
type rssSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MiB
}

func startRSSSampler(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if mb, ok := residentMiB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// medianMiB stops the sampler, waits for it, and returns the median sample.
func (s *rssSampler) medianMiB() float64 {
	close(s.stop)
	s.wg.Wait()
	return median(s.samples)
}

// residentMiB reads the resident set size from /proc/self/statm.
func residentMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
