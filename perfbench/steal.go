package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared VM the hypervisor takes CPU time away from the guest ("steal
// time"), in episodes of seconds to minutes; on the 2-core host this
// benchmark was sized on it varied between 1% and 30% of the VM's CPU time
// and moved every wall-clock figure with it. Each vCPU loses the same
// share on average, and the critical path of the measured work always
// runs on some vCPU, so an interval during which a share f of the VM's
// CPU time was stolen took about 1/(1-f) times as long as it would have on
// an unshared host. Wall-clock metrics are reported scaled by (1-f) of
// the interval they were measured in; the raw figures are printed beside
// them. Where the kernel does not expose steal time, f is 0.

// stealMark is a reading of the VM's cumulative CPU accounting.
type stealMark struct {
	steal, total uint64
	ok           bool
}

// markSteal reads the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal ...
func markSteal() stealMark {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealMark{}
	}
	var m stealMark
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealMark{}
		}
		if i < 8 { // guest time is already counted in user and nice
			m.total += v
		}
		if i == 7 {
			m.steal = v
		}
	}
	m.ok = true
	return m
}

// share is the fraction of the VM's CPU time stolen since m, or 0 when
// either reading is missing or no time has been accounted yet.
func (m stealMark) share() float64 {
	now := markSteal()
	return stealShare(m, now)
}

func stealShare(from, to stealMark) float64 {
	if !from.ok || !to.ok || to.total <= from.total || to.steal < from.steal {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// interval times a phase of the run in wall time and steal.
type interval struct {
	t0 time.Time
	m  stealMark
}

func startInterval() interval { return interval{t0: time.Now(), m: markSteal()} }

// end returns the phase's raw wall time and the steal share during it.
func (iv interval) end() (time.Duration, float64) {
	return time.Since(iv.t0), iv.m.share()
}

// unshared scales a wall time measured while a share f of CPU time was
// stolen to the time it would have taken without the steal.
func unshared(d time.Duration, f float64) float64 { return d.Seconds() * (1 - f) }
