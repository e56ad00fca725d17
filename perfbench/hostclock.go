package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the hypervisor can run other guests on the
// physical CPUs while this guest's vCPUs want to run. The guest kernel
// counts that time as steal; on a shared host it comes and goes in
// phases of minutes and can take a third of a run's wall time, so the
// same code measured twice in wall time differs by more than any bound
// a regression gate can have. The end-to-end host-time metrics are
// therefore measured in unstolen seconds: the wall time scaled by the
// share of the guest's runnable CPU time (busy plus steal, over all
// CPUs) that was not stolen. calib.go then scales them to reference
// seconds. Where the kernel reports no steal (bare metal, or no
// /proc/stat), unstolen seconds are wall seconds.

// clockTicks is the unit of /proc/stat (USER_HZ), 100 on Linux.
const clockTicks = 100

// cpuTimes returns the busy and the steal time the kernel has counted
// since boot, in seconds summed over CPUs. Busy is user, nice, system,
// irq and softirq time; idle and iowait are not runnable time.
func cpuTimes() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var t [9]float64
	for i := 1; i < 9; i++ {
		n, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		t[i] = float64(n) / clockTicks
	}
	return t[1] + t[2] + t[3] + t[6] + t[7], t[8]
}

// stopwatch measures one interval in wall and unstolen seconds.
type stopwatch struct {
	start       time.Time
	busy, steal float64
}

func startWatch() stopwatch {
	busy, steal := cpuTimes()
	return stopwatch{time.Now(), busy, steal}
}

// read returns the wall time since the stopwatch started and the
// unstolen part of it, both in seconds. Steal is assumed to fall evenly
// on the guest's runnable time, so unstolen is the wall time times
// busy/(busy+steal) over the interval. The counters tick every 10 ms;
// over an interval with no busy or no steal tick, unstolen is the wall
// time.
func (s stopwatch) read() (wall, unstolen float64) {
	wall = time.Since(s.start).Seconds()
	busy, steal := cpuTimes()
	busy, steal = busy-s.busy, steal-s.steal
	if busy > 0 && steal > 0 {
		return wall, wall * busy / (busy + steal)
	}
	return wall, wall
}

// unstolen is the unstolen part of the time since the stopwatch started.
func (s stopwatch) unstolen() float64 {
	_, u := s.read()
	return u
}
