package main

import (
	"fmt"
	"time"

	tics "repro"
	"repro/internal/audit"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// verifyApps are the paper's four benchmark programs.
var verifyApps = []string{"ar", "bc", "cf", "ghm"}

// verifySpec is the checked run: TICS with a 2 ms checkpoint timer,
// virtualized sends, and a wall budget that bounds the oracle (ghm never
// halts on its own). The seed drives the sensor bank.
func verifySpec(app string, seed uint64, wallMs float64) replay.Spec {
	return replay.Spec{App: app, Runtime: "tics", TimerMs: 2, Virtualize: true, WallMs: wallMs, Seed: seed}
}

type sweepCounts struct {
	Schedules, Boundaries, Dropped int
	Cycles                         int64
}

// sweepApp runs one depth-1 sweep and checks it: clean, nothing dropped,
// one schedule per boundary, and the same counts as want (if non-nil).
// It returns the counts and the sweep's unstolen host seconds.
func sweepApp(b *bench, app string, want *sweepCounts) (sweepCounts, float64, error) {
	w := startWatch()
	rep, err := mc.Sweep(mc.Config{Spec: verifySpec(app, b.seed, b.p.VerifyWallMs), Depth: 1, Workers: b.workers})
	sec := w.unstolen()
	if err != nil {
		return sweepCounts{}, sec, fmt.Errorf("sweep %s: %w", app, err)
	}
	got := sweepCounts{rep.Schedules, rep.Boundaries, rep.Dropped, rep.CyclesExplored}
	b.attempted += int64(rep.Schedules)
	b.failed += int64(len(rep.Findings) + len(rep.OracleFindings))
	if !rep.Clean() {
		b.mismatch("sweep %s: %d findings, first %s", app, len(rep.Findings)+len(rep.OracleFindings), rep.Counterexample())
	}
	if got.Dropped != 0 || got.Schedules != got.Boundaries {
		b.mismatch("sweep %s: %d schedules for %d boundaries, %d dropped", app, got.Schedules, got.Boundaries, got.Dropped)
	}
	if want != nil && got != *want {
		b.mismatch("sweep %s: counts %+v, earlier round %+v", app, got, *want)
	}
	return got, sec, nil
}

// runVerify drives the verify workload.
func runVerify(b *bench) error {
	fmt.Fprintf(b.log, "verify: mc.Sweep depth 1 over %v, runtime tics, 2 ms timer, virtualized sends, wall %g ms, workers=%d\n",
		verifyApps, b.p.VerifyWallMs, b.workers)
	// Set-up, repeated: build every image, run each program once and
	// warm the checker's machine pool with a short strided sweep.
	images := map[string]*tics.Image{}
	var setup []float64
	for i := 0; i < b.p.SetupReps; i++ {
		w := startWatch()
		for _, app := range verifyApps {
			sp := b.tr.begin("build.image", int64(i), -1)
			img, _, err := replay.BuildImage(verifySpec(app, b.seed, b.p.VerifyWallMs))
			b.tr.end(sp)
			if err != nil {
				return err
			}
			images[app] = img
			if _, _, err := oracleRun(img, verifySpec(app, b.seed, b.p.VerifyWallMs), false, nil, nil, 0, -1); err != nil {
				return err
			}
			warm := mc.Config{Spec: verifySpec(app, b.seed, b.p.VerifyWallMs), Depth: 1, Workers: b.workers, MaxSchedules: 64}
			if _, err := mc.Sweep(warm); err != nil {
				return err
			}
		}
		setup = append(setup, b.setupRef(w.unstolen()))
	}
	b.setupS = median(setup)
	if b.trace {
		return traceVerify(b, images)
	}

	want := map[string]*sweepCounts{}
	var schedules int
	var seconds float64
	var rounds int
	var peaks []float64
	start := time.Now()
	for i := 0; !b.deadline(start, i); i++ {
		startRound()
		var round float64
		for _, app := range verifyApps {
			got, sec, err := sweepApp(b, app, want[app])
			if err != nil {
				return err
			}
			want[app] = &got
			schedules += got.Schedules
			round += sec
			b.calibrate()
		}
		seconds += round
		rounds++
		peaks = append(peaks, peakRSSMB())
	}
	fmt.Fprintf(b.log, "verify: %d rounds, %d schedules per round; throughput_per_s = schedules per reference second\n",
		rounds, schedules/rounds)
	b.setEndToEnd(float64(schedules)/seconds, b.setupS, median(peaks))
	return nil
}

// oracleRun executes one uninterrupted run of spec, bare or with an
// obs recorder and the audit attached, recording reset and run spans
// when tr is non-nil. Like the checker's pool, it rebinds m with
// tics.ResetMachine, or builds a machine with tics.NewMachine when m is
// nil. It returns the result and the machine for the next run; an
// audited run that finds a violation is an error.
func oracleRun(img *tics.Image, spec replay.Spec, audited bool, m *vm.Machine, tr *tracer, id int64, parent int32) (vm.Result, *vm.Machine, error) {
	src, err := replay.ParsePower("continuous", spec.Seed)
	if err != nil {
		return vm.Result{}, m, err
	}
	clock, err := replay.ParseClock("perfect", spec.Seed)
	if err != nil {
		return vm.Result{}, m, err
	}
	opts := tics.RunOptions{
		Power:           src,
		Clock:           clock,
		Sensors:         sensors.NewBank(spec.Seed),
		AutoCpPeriodMs:  spec.TimerMs,
		MaxWallMs:       spec.WallMs,
		VirtualizeSends: spec.Virtualize,
	}
	if audited {
		opts.Recorder = obs.NewRecorder(obs.Options{RingCap: 64})
	}
	sp := tr.begin("vm.machine_reset", id, parent)
	if m == nil {
		m, err = tics.NewMachine(img, opts)
	} else {
		err = tics.ResetMachine(m, img, opts)
	}
	tr.end(sp)
	if err != nil {
		return vm.Result{}, nil, err
	}
	var aud *audit.Auditor
	if audited {
		if aud, err = audit.Attach(m, audit.Options{}); err != nil {
			return vm.Result{}, m, err
		}
	}
	sp = tr.begin("vm.run", id, parent)
	res, err := m.Run()
	tr.end(sp)
	if err != nil {
		return res, m, err
	}
	if aud != nil && aud.Total() > 0 {
		return res, m, fmt.Errorf("audit: %s", aud.Summary())
	}
	return res, m, nil
}

// traceVerify times each sweep with a span, and prices the audit: per
// program, uninterrupted runs with audit.Attach and a recorder against
// bare runs, which must agree on every simulated count. The runs of a
// program share one machine, reset before each run as in the sweep, so
// vm.machine_reset times the reset path the sweep exercises.
func traceVerify(b *bench, images map[string]*tics.Image) error {
	want := map[string]*sweepCounts{}
	machines := map[string]*vm.Machine{}
	var bareS, auditS, untraced, tracedSweeps []float64
	var sweepSec, states float64
	var fs fleetSummary
	var lastRoot int32
	start := time.Now()
	for i := 0; !b.deadline(start, i); i++ {
		// An untraced round, for the tracing overhead.
		t := time.Now()
		for _, app := range verifyApps {
			if _, _, err := sweepApp(b, app, want[app]); err != nil {
				return err
			}
		}
		untraced = append(untraced, time.Since(t).Seconds())

		root := b.tr.begin("verify.round", int64(i), -1)
		var bare, aud, swept float64
		fs = fleetSummary{}
		for k, app := range verifyApps {
			sp := b.tr.begin("mc.sweep."+app, int64(k), root)
			got, sec, err := sweepApp(b, app, want[app])
			b.tr.end(sp)
			if err != nil {
				return err
			}
			want[app] = &got
			sweepSec += sec
			swept += sec
			states += float64(got.Cycles)

			spec := verifySpec(app, b.seed, b.p.VerifyWallMs)
			sp = b.tr.begin("audit.pair", int64(k), root)
			ts := time.Now()
			r0, m, err := oracleRun(images[app], spec, false, machines[app], b.tr, int64(k), sp)
			if err != nil {
				return err
			}
			bare += time.Since(ts).Seconds()
			ts = time.Now()
			r1, m, err := oracleRun(images[app], spec, true, m, b.tr, int64(k), sp)
			if err != nil {
				b.mismatch("audited run of %s: %v", app, err)
			}
			machines[app] = m
			aud += time.Since(ts).Seconds()
			b.tr.end(sp)
			if r0.Cycles != r1.Cycles || r0.TotalCheckpoints != r1.TotalCheckpoints || len(r0.SendLog) != len(r1.SendLog) {
				b.mismatch("%s: attaching the audit changed the run: %d/%d cycles, %d/%d checkpoints", app, r0.Cycles, r1.Cycles, r0.TotalCheckpoints, r1.TotalCheckpoints)
			}
			fs.addResult(&r0)
		}
		b.tr.end(root)
		tracedSweeps = append(tracedSweeps, swept)
		bareS = append(bareS, bare)
		auditS = append(auditS, aud)
		lastRoot = root
	}
	rounds := len(tracedSweeps)
	for _, app := range verifyApps {
		b.set("mc.sweep_s."+app, b.tr.total("mc.sweep."+app)/float64(rounds))
	}
	var sched, cycles int64
	for _, c := range want {
		sched += int64(c.Schedules)
		cycles += c.Cycles
	}
	b.set("mc.schedules", float64(sched))
	b.set("mc.cycles_explored", float64(cycles))
	b.set("mc.states_per_s", states/sweepSec)
	b.set("audit.overhead_ratio", median(auditS)/median(bareS))
	// Each round runs every program twice, bare and audited.
	setVMMetrics(b, fs, 2*rounds)
	setTraceMetrics(b, median(tracedSweeps), median(untraced), lastRoot)
	return nil
}
