package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middles for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the driver's noise check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// percentile returns the pct-th percentile of xs (nearest rank), or
// ok=false when fewer than ten samples lie beyond it: a tail read off
// three samples is not a tail.
func percentile(xs []float64, pct int) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	idx := (pct*n+99)/100 - 1
	if n-1-idx < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Each
// workload runs in its own process, so this is that workload's own peak.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line[len("VmHWM:"):])
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// digest fingerprints a parameter vector bit for bit.
func digest(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// settle is run before every timed section so one section's garbage is
// not collected on the next one's clock.
func settle() {
	runtime.GC()
	runtime.GC()
}

// liveHeapMB is what the program still holds once everything collectable
// is collected (two cycles also empty every sync.Pool): the part of a
// workload's memory that does not depend on when the collector happened to
// run. It includes whatever tensor's scratch arena holds idle at that
// instant, which on cip_vgg_f64 depends on the path the last batches took
// (README "Noise").
func liveHeapMB() float64 {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memCounters are the runtime.MemStats fields the runtime.* metrics use.
type memCounters struct {
	allocBytes, mallocs, pauseNS uint64
	gcCycles                     uint32
	heapInuse                    uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs, ms.NumGC, ms.HeapInuse}
}

// timeIt runs fn repeatedly for about budget (at least three times, after
// one untimed warm-up call) and returns the median seconds per call.
func timeIt(budget time.Duration, fn func()) float64 {
	fn()
	var samples []float64
	start := time.Now()
	for len(samples) < 3 || time.Since(start) < budget {
		t := time.Now()
		fn()
		samples = append(samples, time.Since(t).Seconds())
	}
	return median(samples)
}

// hostProbeMS is a diagnostic, not a correction: how long the host takes,
// right now, to push a scaled copy through 16 MB four times on each core
// (median of five). The reference host is a shared 2-vCPU VM whose memory
// system slows by tens of percent when the neighbours are busy; a run
// prints this from before its set-up and after its checks, outside every
// timed section, so a reader can tell a slow run from a slow host. No
// metric is divided by it.
func hostProbeMS() float64 {
	var buf [nClients][2][]float64
	for k := range buf {
		buf[k][0], buf[k][1] = make([]float64, 1<<20), make([]float64, 1<<20)
		for i := range buf[k][0] {
			buf[k][0][i] = float64(i)
		}
	}
	samples := make([]float64, 5)
	for s := range samples {
		var wg sync.WaitGroup
		t := time.Now()
		for k := 0; k < nClients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src, dst := buf[k][0], buf[k][1]
				for pass := 0; pass < 4; pass++ {
					for i, v := range src {
						dst[i] = v*1.0000001 + 1e-12
					}
				}
			}()
		}
		wg.Wait()
		samples[s] = time.Since(t).Seconds() * 1e3
	}
	return median(samples)
}
