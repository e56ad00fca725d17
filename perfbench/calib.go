package main

import (
	"fmt"
	"runtime"
	"sync"
)

// Besides steal (hostclock.go), the speed a shared host gives this guest
// changes in phases of seconds to minutes: with almost no steal, the same
// fleet round ran at 18k devices per second in one 30-second run and at
// 24.8k two runs later. No bound a regression gate can have covers that.
// The benchmark therefore prices the host next to every measured round
// with a reference kernel: a fixed, small register-machine interpreter
// (switch dispatch, data-dependent branches, loads and stores into a
// 16 KiB memory) that is slowed by the same contention as the simulator's
// own interpreter. The kernel is part of the benchmark, not of the
// measured program, so no change to the repository's code moves it.
// End-to-end host times are reported in reference seconds: unstolen
// seconds times the kernel's rate, divided by calibRef. A reference
// second is the time in which the kernel runs calibRef steps on each
// worker. Throughput uses the kernel's mean rate over the measured
// rounds; each set-up uses the rate measured right after it.

// calibRef is the kernel rate, steps per second per worker, that
// defines a reference second: about the rate on the 2-vCPU Xeon
// virtual machine the benchmark was tuned on.
const calibRef = 2.5e8

const (
	calibWords = 1 << 13 // 16-bit words of kernel memory
	calibProg  = 256     // instructions in the kernel's program
	calibChunk = 1 << 12 // steps per call of calibSteps
)

type calibOp struct {
	op, a, b uint8
	imm      uint16
}

// calibProgram is the kernel's program, the same on every run.
var calibProgram = func() []calibOp {
	prog := make([]calibOp, calibProg)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range prog {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		prog[i] = calibOp{op: uint8(z % 8), a: uint8(z >> 8 % 8), b: uint8(z >> 16 % 8), imm: uint16(z >> 32)}
	}
	return prog
}()

// calibSteps runs steps kernel instructions from pc over mem and
// regs, and returns the next pc.
func calibSteps(mem []uint16, regs *[8]uint16, pc int, steps int) int {
	prog := calibProgram
	for ; steps > 0; steps-- {
		in := prog[pc]
		pc++
		ra, rb := &regs[in.a], regs[in.b]
		switch in.op {
		case 0:
			*ra += rb
		case 1:
			*ra ^= rb + in.imm
		case 2:
			*ra = mem[(rb+in.imm)%calibWords]
		case 3:
			mem[(rb+in.imm)%calibWords] = *ra
		case 4:
			if *ra&1 == 0 {
				pc = int(in.imm) % calibProg
			}
		case 5:
			*ra = *ra<<(rb&15) | *ra>>(16-rb&15)
		case 6:
			*ra *= rb | 1
		case 7:
			*ra += in.imm
		}
		if pc == calibProg {
			pc = 0
		}
	}
	return pc
}

// kernelRate collects the heap, so no garbage collection of the last
// round overlaps it, then runs about steps kernel steps (whole chunks,
// at least one) on each of workers goroutines and returns the steps per
// unstolen second per worker.
func kernelRate(workers, steps int) float64 {
	chunks := max(steps/calibChunk, 1)
	runtime.GC()
	var wg sync.WaitGroup
	w := startWatch()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mem := make([]uint16, calibWords)
			regs := [8]uint16{uint16(k), 1, 2, 3, 4, 5, 6, 7}
			pc := 0
			for c := 0; c < chunks; c++ {
				pc = calibSteps(mem, &regs, pc, calibChunk)
			}
		}(k)
	}
	wg.Wait()
	return float64(chunks*calibChunk) / w.unstolen()
}

// calibrate prices the host once, next to a measured round.
func (b *bench) calibrate() {
	b.kernelRates = append(b.kernelRates, kernelRate(b.workers, b.p.CalibSteps))
}

// refScale turns unstolen seconds into reference seconds: the mean
// kernel rate of the run over calibRef.
func (b *bench) refScale() float64 {
	if len(b.kernelRates) == 0 {
		return 1
	}
	return sum(b.kernelRates) / float64(len(b.kernelRates)) / calibRef
}

// setupRef converts one set-up's unstolen seconds into reference
// seconds, pricing the host right after it.
func (b *bench) setupRef(unstolen float64) float64 {
	return unstolen * kernelRate(b.workers, b.p.CalibSteps) / calibRef
}

// setEndToEnd sets the end-to-end metrics from the run's throughput per
// unstolen second, its median set-up in reference seconds and its peak
// RSS.
func (b *bench) setEndToEnd(perUnstolenS, setupRefS, peakMB float64) {
	k := b.refScale()
	b.set("throughput_per_s", perUnstolenS/k)
	b.set("setup_s", setupRefS)
	b.set("peak_rss_mb", peakMB)
	fmt.Fprintf(b.log, "host speed: reference kernel %.4g steps/s per worker (mean of %d, reference %.3g); throughput %.6g per unstolen second\n",
		k*calibRef, len(b.kernelRates), calibRef, perUnstolenS)
}
