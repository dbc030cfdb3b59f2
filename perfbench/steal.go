package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stealTicks returns the CPU time the hypervisor has taken from this
// machine's CPUs, in clock ticks (1/100 s), from the steal column of
// /proc/stat; 0 where that is unavailable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// rep is one measured repetition (a set-up, a unit or a serving round):
// its value and the share of the machine's CPU time stolen while it ran.
type rep struct {
	value  float64
	stolen float64
}

// stealMeter measures the stolen share of one repetition.
type stealMeter struct {
	start time.Time
	ticks int64
}

func startSteal() stealMeter { return stealMeter{time.Now(), stealTicks()} }

func (m stealMeter) share() float64 {
	wall := time.Since(m.start).Seconds() * float64(runtime.NumCPU())
	if wall <= 0 {
		return 0
	}
	return float64(stealTicks()-m.ticks) / 100 / wall
}

// quietest returns the repetitions during which no more CPU time was
// stolen than during the median repetition: at least half of them, and
// all of them when none was disturbed. Other tenants of the host slow a
// repetition down but never speed it up, so ranking by stolen time
// discards the disturbed ones instead of averaging them in.
func quietest[T any](xs []T, stolen func(T) float64) []T {
	s := append([]T(nil), xs...)
	sort.SliceStable(s, func(i, j int) bool { return stolen(s[i]) < stolen(s[j]) })
	n := (len(s) + 1) / 2
	for n < len(s) && stolen(s[n]) <= stolen(s[n-1]) {
		n++
	}
	return s[:n]
}

// quietMedian is the median value over the quietest repetitions.
func quietMedian(reps []rep) float64 {
	q := quietest(reps, func(r rep) float64 { return r.stolen })
	vals := make([]float64, len(q))
	for i := range q {
		vals[i] = q[i].value
	}
	return median(vals)
}
