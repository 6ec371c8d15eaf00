package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie strictly above a percentile's
// rank before the percentile is reported: a p99.9 over 4000 samples is
// the 4th-largest value, i.e. noise, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted (which
// must be ascending) and how many samples lie strictly beyond that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps float error (99.9/100*1000 = 999.0000000000001)
	// from bumping an exact rank up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// reportable reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func reportable(n int, p float64) bool {
	_, beyond := percentile(make([]float64, n), p)
	return n > 0 && beyond >= minBeyond
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// outcome counts what happened to the requests of one measured window.
type outcome struct {
	Attempted int // arrivals due inside the window
	Shed      int // dropped at the in-flight cap
	Timeouts  int // submitted, never answered before the drain deadline
	NoSeq     int // failed fast with no sequencer
	Other     int // any other per-request error
	// Diverged marks a window after which the members of some group
	// disagreed on completed count or ConsistencyHash.
	Diverged bool
}

// plus adds p's counts to o's.
func (o outcome) plus(p outcome) outcome {
	o.Attempted += p.Attempted
	o.Shed += p.Shed
	o.Timeouts += p.Timeouts
	o.NoSeq += p.NoSeq
	o.Other += p.Other
	o.Diverged = o.Diverged || p.Diverged
	return o
}

// failed is the number of the window's requests counted as failures: a
// diverged window fails every request it attempted, because no reply
// from a diverged group can be trusted.
func (o outcome) failed() int {
	if o.Diverged {
		return o.Attempted
	}
	f := o.Shed + o.Timeouts + o.NoSeq + o.Other
	if f > o.Attempted {
		f = o.Attempted
	}
	return f
}

// failedFrac is failed()/Attempted (0 for an empty window).
func (o outcome) failedFrac() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.Attempted)
}

// clockTicks is the USER_HZ of /proc/<pid>/stat CPU times (100 on every
// Linux ABI Go supports).
const clockTicks = 100

// cpuMsPerKreq converts a CPU-tick delta into milliseconds of CPU per
// 1000 completed requests.
func cpuMsPerKreq(ticksBefore, ticksAfter int64, completions int) float64 {
	if completions <= 0 {
		return 0
	}
	ms := float64(ticksAfter-ticksBefore) * 1000 / clockTicks
	return ms / (float64(completions) / 1000)
}

// parseStatTicks extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may contain spaces, so fields are counted
// from the closing parenthesis.
func parseStatTicks(stat string) (int64, bool) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, false
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return u + s, true
}

// parseRSSKB extracts VmRSS (kB) from the text of /proc/<pid>/status.
func parseRSSKB(status string) (int64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0, false
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		return v, err == nil
	}
	return 0, false
}
