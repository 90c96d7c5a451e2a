package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Host-noise readings. They are printed beside the metrics so a slow
// host can be told from slow code; they never gate a run and never
// normalise a metric.

// cpuTimes reads the aggregate "cpu" line of /proc/stat: the steal
// ticks and the total of user..steal ticks (guest time is already
// inside user). ok is false where /proc/stat is unavailable.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of CPU time the hypervisor stole over
// an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{s, t, ok}
}

// pct is the stolen share of all CPU ticks since start, in percent; 0
// when /proc/stat is unreadable or no tick passed.
func (m stealMeter) pct() float64 {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// refLoop is a frozen compute-only reference: a fixed chain of
// dependent floating-point operations touching no memory. Its time
// moves only with the host (clock, steal, a busy sibling thread),
// never with the program under test. Do not change it: its history is
// only comparable while the loop stays the same.
func refLoop() float64 {
	x := 1.0
	for i := 0; i < 20_000_000; i++ {
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x -= 1
		}
	}
	return x
}

// refMs is the median time of reps runs of refLoop, in milliseconds.
func refMs(reps int) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		sink += refLoop()
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// statusKB reads a "<field>: <n> kB" line of /proc/self/status.
func statusKB(field string) (uint64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	kb, _ := statusKB("VmHWM")
	return float64(kb) / 1024
}

// llcBytes is the size of cpu0's highest-level cache from sysfs, 0 if
// unknown.
func llcBytes() uint64 {
	var best uint64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := uint64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}
