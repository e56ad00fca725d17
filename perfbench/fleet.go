package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	tics "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// fleetConfig is the simulated deployment every fleet-shaped workload
// runs: the ghm wearable under the TICS runtime on harvested power with
// a 100 ms budget per device, reporting over a lossy, duplicating,
// delaying link into a gateway with a 500 ms freshness deadline.
func fleetConfig(n int, seed uint64, workers int, telemetry bool) fleet.Config {
	return fleet.Config{
		Devices: n,
		Workers: workers,
		App:     "ghm",
		Runtime: "tics",
		Power:   "harvest:40000,800",
		Clock:   "perfect",
		Seed:    seed,
		WallMs:  100,
		Link: fleet.LinkParams{
			Loss: 0.05, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20,
		},
		FreshnessMs: 500,
		Collect:     telemetry,
		Trace:       telemetry,
		Profile:     telemetry,
	}
}

// fleetSummary is everything a round must reproduce exactly: the
// gateway digest and every simulated count. Host timings are not in it.
type fleetSummary struct {
	Digest         string
	Cycles         int64
	PowerFailures  int64
	Checkpoints    int64
	Restores       int64
	StoresLogged   int64
	UndoRollbacks  int64
	Faulted        int64
	Sends, Unique  int64
	Gateway        fleet.GatewayStats
	Lost           int64
	LatP50, LatP99 float64 // simulated delivery latency, ms
	Link           fleet.LinkStats
}

func (s *fleetSummary) addResult(res *vm.Result) {
	s.Cycles += res.Cycles
	s.PowerFailures += int64(res.Failures)
	s.Checkpoints += res.TotalCheckpoints
	s.Restores += res.Restores
	s.StoresLogged += res.RuntimeStats["stores-logged"]
	s.UndoRollbacks += res.RuntimeStats["undo-rollbacks"]
	if res.Fault != nil {
		s.Faulted++
	}
}

func summarizeReport(rep *fleet.Report) fleetSummary {
	s := fleetSummary{
		Digest: rep.Digest, Sends: rep.Sends, Unique: rep.UniqueSends,
		Gateway: rep.Gateway, Lost: rep.Lost,
		LatP50: rep.LatencyP50, LatP99: rep.LatencyP99, Link: rep.Link,
	}
	for i := range rep.Outcomes {
		s.addResult(&rep.Outcomes[i].Res)
	}
	return s
}

// checkSame reports a mismatch between two summaries that must agree.
func checkSame(what string, want, got fleetSummary) error {
	if want != got {
		return fmt.Errorf("%s: got %+v, want %+v", what, got, want)
	}
	return nil
}

func (s fleetSummary) String() string {
	return fmt.Sprintf("digest %.12s… cycles %d checkpoints %d arrivals %d delivered %d duplicates %d lost %d latency p50/p99 %.3g/%.3g ms (simulated)",
		s.Digest, s.Cycles, s.Checkpoints, s.Gateway.Arrivals, s.Gateway.Delivered, s.Gateway.Duplicates, s.Lost, s.LatP50, s.LatP99)
}

// fleetRound is one timed, untraced fleet.Run call, plus for the
// telemetry workload the Prometheus and span exports.
type fleetRound struct {
	rep        *fleet.Report
	runS       float64 // host seconds inside fleet.Run
	unstolenS  float64 // unstolen seconds of fleet.Run and the exports (hostclock.go)
	promS      float64
	spansS     float64
	allocBytes uint64
	gcPauseNs  uint64
	peakMB     float64
}

func runFleetRound(cfg fleet.Config) (fleetRound, error) {
	startRound()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := startWatch()
	rep, err := fleet.Run(cfg)
	r := fleetRound{rep: rep}
	r.runS, _ = w.read()
	runtime.ReadMemStats(&after)
	if err != nil {
		return r, err
	}
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	if cfg.Collect {
		t := time.Now()
		if err := rep.Metrics.WritePrometheus(io.Discard); err != nil {
			return r, err
		}
		r.promS = time.Since(t).Seconds()
		t = time.Now()
		if err := rep.Telemetry.WriteJSON(io.Discard); err != nil {
			return r, err
		}
		r.spansS = time.Since(t).Seconds()
	}
	_, r.unstolenS = w.read()
	r.peakMB = peakRSSMB()
	return r, nil
}

// setupFleet is the fleet workloads' set-up, repeated p.SetupReps times:
// build the image and run one small warm-up round.
func setupFleet(b *bench, cfg fleet.Config) error {
	var times []float64
	for i := 0; i < b.p.SetupReps; i++ {
		w := startWatch()
		sp := b.tr.begin("build.image", int64(i), -1)
		_, _, err := replay.BuildImage(cfg.DeviceSpec(0))
		b.tr.end(sp)
		if err != nil {
			return err
		}
		warm := cfg
		warm.Devices = min(cfg.Devices, 2048)
		if _, err := fleet.Run(warm); err != nil {
			return err
		}
		times = append(times, b.setupRef(w.unstolen()))
	}
	b.setupS = median(times)
	return nil
}

// runFleet drives the fleet and fleet-telemetry workloads.
func runFleet(b *bench, telemetry bool) error {
	n := b.p.FleetDevices
	if telemetry {
		n = b.p.TelemetryDevices
	}
	cfg := fleetConfig(n, b.seed, b.workers, telemetry)
	fmt.Fprintf(b.log, "fleet: n=%d app=ghm runtime=tics power=%s wall=100ms link loss=5%% dup=2%% delay=2-20ms freshness=500ms telemetry=%v workers=%d\n",
		n, cfg.Power, telemetry, b.workers)
	if err := setupFleet(b, cfg); err != nil {
		return err
	}
	if b.trace {
		return traceFleet(b, cfg)
	}

	var rates, wallRates, peaks []float64
	var want *fleetSummary
	start := time.Now()
	for i := 0; !b.deadline(start, i); i++ {
		r, err := runFleetRound(cfg)
		if err != nil {
			return err
		}
		got := summarizeReport(r.rep)
		b.attempted += int64(n)
		b.failed += got.Faulted
		if want == nil {
			want = &got
			fmt.Fprintln(b.log, "fleet:", got)
		} else if err := checkSame(fmt.Sprintf("round %d", i), *want, got); err != nil {
			b.mismatch("fleet rounds differ: %v", err)
		}
		b.calibrate()
		rates = append(rates, float64(n)/r.unstolenS)
		wallRates = append(wallRates, float64(n)/(r.runS+r.promS+r.spansS))
		peaks = append(peaks, r.peakMB)
	}
	fmt.Fprintf(b.log, "fleet: %d rounds; throughput_per_s = devices per reference second of fleet.Run and the exports (median %.6g per wall second)\n",
		len(rates), median(wallRates))
	b.setEndToEnd(median(rates), b.setupS, median(peaks))
	return nil
}

// traceFleet alternates untraced fleet.Run rounds with traced replica
// rounds that drive the same devices through the public per-layer calls.
// The replica must reproduce the untraced digest and every simulated
// count; with telemetry it also runs telemetry-off rounds to price it.
func traceFleet(b *bench, cfg fleet.Config) error {
	telemetry := cfg.Collect
	off := cfg
	off.Collect, off.Trace, off.Profile = false, false, false

	var (
		untraced, traced, offWalls []float64
		allocOn, allocOff          []float64
		gcPause, serial            []float64
		phaseDev, phaseTel         []float64
		prom, spansOut             []float64
		want                       *fleetSummary
		lastRoot                   int32
		arrivals                   []fleet.Arrival
	)
	start := time.Now()
	for i := 0; !b.deadline(start, i); i++ {
		r, err := runFleetRound(cfg)
		if err != nil {
			return err
		}
		got := summarizeReport(r.rep)
		b.attempted += int64(cfg.Devices)
		b.failed += got.Faulted
		if want == nil {
			want = &got
			fmt.Fprintln(b.log, "fleet:", got)
		} else if err := checkSame("untraced round", *want, got); err != nil {
			b.mismatch("fleet rounds differ: %v", err)
		}
		untraced = append(untraced, r.runS)
		allocOn = append(allocOn, float64(r.allocBytes)/float64(cfg.Devices))
		gcPause = append(gcPause, float64(r.gcPauseNs)/1e6)
		ph := fleet.PhaseMap(r.rep.Phases)
		serial = append(serial, (ph[fleet.PhaseChannel]+ph[fleet.PhaseGateway]+ph[fleet.PhaseTelemetry])/r.rep.WallSeconds)
		phaseDev = append(phaseDev, ph[fleet.PhaseDevices])
		phaseTel = append(phaseTel, ph[fleet.PhaseTelemetry])
		prom = append(prom, r.promS*1e3)
		spansOut = append(spansOut, r.spansS*1e3)

		if telemetry {
			ro, err := runFleetRound(off)
			if err != nil {
				return err
			}
			offSum := summarizeReport(ro.rep)
			b.attempted += int64(cfg.Devices)
			b.failed += offSum.Faulted
			if err := checkSame("telemetry off vs on", *want, offSum); err != nil {
				b.mismatch("telemetry changed the simulation: %v", err)
			}
			offWalls = append(offWalls, ro.runS)
			allocOff = append(allocOff, float64(ro.allocBytes)/float64(cfg.Devices))
		}

		startRound()
		rep, arr, wall, root, err := replicaRound(cfg, b.tr, telemetry, int64(i))
		if err != nil {
			return err
		}
		b.attempted += int64(cfg.Devices)
		b.failed += rep.Faulted
		if err := checkSame("traced replica vs fleet.Run", *want, rep); err != nil {
			b.mismatch("%v", err)
		}
		traced = append(traced, wall)
		lastRoot = root
		arrivals = arr
	}
	setVMMetrics(b, *want, len(traced))
	b.set("fleet.channel_s", b.tr.total("fleet.transmit")/float64(len(traced)))
	b.set("fleet.gateway_s", (b.tr.total("fleet.sort_arrivals")+b.tr.total("fleet.accept"))/float64(len(traced)))
	b.set("fleet.serial_share", median(serial))
	setFleetCounts(b, *want)
	b.set("go.gc_pause_ms", median(gcPause))
	if telemetry {
		b.set("fleet.phase.devices_s", median(phaseDev))
		b.set("fleet.phase.telemetry_s", median(phaseTel))
		b.set("obs.export_prom_ms", median(prom))
		b.set("obs.export_spans_ms", median(spansOut))
		b.set("obs.overhead_pct", 100*(median(untraced)-median(offWalls))/median(offWalls))
		b.set("obs.alloc_bytes_per_device", median(allocOn)-median(allocOff))
		b.set("fleet.alloc_bytes_per_device", median(allocOff))
	} else {
		b.set("fleet.alloc_bytes_per_device", median(allocOn))
	}
	setTraceMetrics(b, median(traced), median(untraced), lastRoot)
	if telemetry {
		return nil
	}
	// The gate layer, priced on this fleet's own arrivals: the ingest
	// workload's wall-clock figures follow the shared disk's fsync rate
	// too closely to gate on, so the layer is measured here as well.
	ref := referenceSummary(arrivals, cfg.FreshnessMs)
	if ref.Digest != want.Digest {
		b.mismatch("in-process gateway over the replica's arrivals: digest %s, fleet.Run %s", ref.Digest, want.Digest)
	}
	_, _, _, err := traceGate(b, arrivals, ref, cfg.FreshnessMs, min(2, b.workers), 0)
	return err
}

// setFleetCounts fills the gateway's simulated counts.
func setFleetCounts(b *bench, s fleetSummary) {
	g := s.Gateway
	b.set("fleet.arrivals", float64(g.Arrivals))
	b.set("fleet.delivered", float64(g.Delivered))
	b.set("fleet.duplicates", float64(g.Duplicates))
	b.set("fleet.lost", float64(s.Lost))
	b.set("fleet.delivered_per_arrival", float64(g.Delivered)/float64(g.Arrivals))
}

// setVMMetrics fills the vm/core layer metrics from the replica spans
// and the simulated counts of one round.
func setVMMetrics(b *bench, s fleetSummary, rounds int) {
	runs := b.tr.durations("vm.run")
	resets := b.tr.durations("vm.machine_reset")
	b.set("build.image_ms", median(b.tr.durations("build.image"))*1e3)
	b.set("vm.machine_reset_us", median(resets)*1e6)
	b.set("vm.run_s", sum(runs)/float64(rounds))
	b.set("vm.run_us_p50", quantile(runs, 0.50)*1e6)
	b.set("vm.run_us_p99", quantile(runs, 0.99)*1e6)
	b.set("vm.sim_cycles_per_s", float64(s.Cycles)*float64(rounds)/sum(runs))
	b.set("vm.sim_cycles", float64(s.Cycles))
	b.set("vm.power_failures", float64(s.PowerFailures))
	b.set("core.checkpoints", float64(s.Checkpoints))
	b.set("core.restores", float64(s.Restores))
	b.set("core.stores_logged", float64(s.StoresLogged))
	b.set("core.undo_rollbacks", float64(s.UndoRollbacks))
}

// setTraceMetrics reports the traced wall, the part of the last root
// span no child span accounts for, and the tracing overhead (traced
// wall minus untraced wall of the same work).
func setTraceMetrics(b *bench, tracedWall, untracedWall float64, root int32) {
	s := b.tr.spans[root]
	wall := float64(s.End-s.Start) / 1e9
	b.set("trace.wall_s", tracedWall)
	b.set("trace.unattributed_s", wall-b.tr.childTotal(root))
	b.set("trace.overhead_s", tracedWall-untracedWall)
	fmt.Fprintf(b.log, "trace: last traced round %.4f s = %.4f s in layer spans + %.4f s unattributed; overhead vs untraced %.4f s\n",
		wall, b.tr.childTotal(root), wall-b.tr.childTotal(root), tracedWall-untracedWall)
}

// uniqueSends is the count of distinct committed sequence numbers in a
// send log: seqs are contiguous from 0, so it is max(seq)+1.
func uniqueSends(log []vm.SendRec) int64 {
	var u int64
	for i := range log {
		if log[i].Seq >= u {
			u = log[i].Seq + 1
		}
	}
	return u
}

// replicaRound runs one fleet round through the public per-layer calls
// fleet.Run is made of, with a span around each: replay.BuildImage,
// tics.NewMachine/ResetMachine and (*vm.Machine).Run per device on a
// fleet.ParallelFor pool, fleet.Transmit per device, then
// fleet.SortArrivals and (*fleet.Gateway).Accept. Devices run in waves
// with pooled machines as fleet.Run does; the wave size only bounds
// memory, every result is independent of it. withRecorder attaches an
// obs recorder with the profiler to every device, as fleet telemetry
// does. It returns the summary, the arrivals in channel order, and the
// round's host seconds and root span.
func replicaRound(cfg fleet.Config, tr *tracer, withRecorder bool, round int64) (fleetSummary, []fleet.Arrival, float64, int32, error) {
	var s fleetSummary
	start := time.Now()
	root := tr.begin("fleet.round", round, -1)
	sp := tr.begin("build.image", round, root)
	img, _, err := replay.BuildImage(cfg.DeviceSpec(0))
	tr.end(sp)
	if err != nil {
		return s, nil, 0, root, err
	}
	n, workers := cfg.Devices, cfg.Workers
	results := make([]vm.Result, n)
	errs := make([]error, n)
	pool := make(chan *vm.Machine, workers)
	for i := 0; i < workers; i++ {
		pool <- nil
	}
	var arrivals []fleet.Arrival
	wave := max(256*workers, 1024)
	for lo := 0; lo < n; lo += wave {
		hi := min(lo+wave, n)
		ws := tr.begin("fleet.devices", int64(lo), root)
		fleet.ParallelFor(hi-lo, workers, func(k int) {
			i := lo + k
			m := <-pool
			results[i], m, errs[i] = replicaDevice(img, cfg.DeviceSpec(i), m, tr, int64(i), ws, withRecorder)
			pool <- m
		})
		tr.end(ws)
		for i := lo; i < hi; i++ {
			if errs[i] != nil {
				return s, nil, 0, root, fmt.Errorf("device %d: %w", i, errs[i])
			}
		}
		cs := tr.begin("fleet.channel", int64(lo), root)
		for i := lo; i < hi; i++ {
			log := results[i].SendLog
			s.Sends += int64(len(log))
			s.Unique += uniqueSends(log)
			ts := tr.begin("fleet.transmit", int64(i), cs)
			arr, st := fleet.Transmit(i, fleet.DeviceSeed(cfg.Seed, i), cfg.Link, log)
			tr.end(ts)
			addLink(&s.Link, st)
			arrivals = append(arrivals, arr...)
			results[i].SendLog = nil
			s.addResult(&results[i])
		}
		tr.end(cs)
	}
	channelOrder := append([]fleet.Arrival(nil), arrivals...)

	gs := tr.begin("fleet.gateway", round, root)
	ss := tr.begin("fleet.sort_arrivals", round, gs)
	fleet.SortArrivals(arrivals)
	tr.end(ss)
	as := tr.begin("fleet.accept", round, gs)
	gw := fleet.NewGateway(cfg.FreshnessMs)
	for _, a := range arrivals {
		gw.Accept(a)
	}
	tr.end(as)
	tr.end(gs)
	ds := tr.begin("fleet.digest", round, root)
	s.Digest = gw.Digest()
	s.Gateway = gw.Stats()
	s.Lost = s.Unique - int64(gw.Unique())
	s.LatP50, s.LatP99 = gw.LatencyQuantile(0.50), gw.LatencyQuantile(0.99)
	tr.end(ds)
	tr.end(root)
	return s, channelOrder, time.Since(start).Seconds(), root, nil
}

// replicaDevice runs device spec.Seed's simulation on a pooled machine
// (nil = build one), exactly as a fleet device runs.
func replicaDevice(img *tics.Image, spec replay.Spec, m *vm.Machine, tr *tracer, id int64, parent int32, withRecorder bool) (vm.Result, *vm.Machine, error) {
	ds := tr.begin("device", id, parent)
	defer tr.end(ds)
	src, err := replay.ParsePower(spec.Power, spec.Seed)
	if err != nil {
		return vm.Result{}, m, err
	}
	clock, err := replay.ParseClock(spec.Clock, spec.Seed)
	if err != nil {
		return vm.Result{}, m, err
	}
	var rec *obs.Recorder
	if withRecorder {
		rec = obs.NewRecorder(obs.Options{RingCap: 64, Profile: true})
	}
	opts := tics.RunOptions{
		Power:           src,
		Clock:           clock,
		Sensors:         sensors.NewBank(spec.Seed),
		AutoCpPeriodMs:  spec.TimerMs,
		MaxWallMs:       spec.WallMs,
		MaxCycles:       spec.MaxCycles,
		VirtualizeSends: spec.Virtualize,
		Recorder:        rec,
	}
	rs := tr.begin("vm.machine_reset", id, ds)
	if m == nil {
		m, err = tics.NewMachine(img, opts)
	} else {
		err = tics.ResetMachine(m, img, opts)
	}
	tr.end(rs)
	if err != nil {
		return vm.Result{}, nil, err
	}
	run := tr.begin("vm.run", id, ds)
	res, _ := m.Run() // a program fault is a device outcome, counted via res.Fault
	tr.end(run)
	return res, m, nil
}

func addLink(dst *fleet.LinkStats, o fleet.LinkStats) {
	dst.Packets += o.Packets
	dst.Frames += o.Frames
	dst.FramesLost += o.FramesLost
	dst.AcksLost += o.AcksLost
	dst.Echoes += o.Echoes
	dst.Undelivered += o.Undelivered
	dst.BadFrames += o.BadFrames
}
