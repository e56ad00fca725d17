// Package fleet scales the single-device simulation out to a deployment:
// N devices — each its own vm.Machine, runtime instance, seeded power
// source, sensors and persistent clock — run concurrently on a
// work-stealing worker pool, report over a simulated lossy RF channel
// (per-link loss, duplication, delay, ARQ retransmits), and land on a
// gateway that deduplicates by (device, send-sequence) and accounts
// freshness against an @expires_after-style deadline.
//
// Determinism is load-bearing. Per-device seeds derive from the fleet
// seed through a splitmix64 mixer, and every device owns all of its
// mutable state (no shared RNGs anywhere). Dedup is keyed by (device,
// seq) and the channel RNG is seeded per device, so a device's gateway
// verdicts depend on its own frames alone: each device's job runs the
// device, its channel and its gateway adjudication, and writes only its
// own result slots. The serial part of a round sums counters and sorts
// the fleet's deliveries into gateway observation order, so a fleet's
// delivery digest and merged metrics are byte-identical whether it ran
// on 1 worker or GOMAXPROCS workers. Any single device of a fleet can be
// exported as an internal/replay manifest and re-executed
// bit-identically for debugging.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	tics "repro"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// Config describes a fleet run. The per-device fields mirror
// replay.Spec on purpose: device i of a fleet *is* the single-device
// run DeviceSpec(i) describes, which is what makes fleet anomalies
// exportable to the single-device record/replay tooling.
type Config struct {
	Devices int // fleet size (default 1)
	Workers int // worker pool size (0 = GOMAXPROCS)

	App     string // built-in benchmark name, or
	Source  string // inline TICS-C source
	Runtime string // runtime kind (default "tics")
	Segment int    // TICS segment bytes (0 = minimum)

	Power string // power spec, replay.ParsePower syntax (default "harvest:40000,800")
	Clock string // clock spec, replay.ParseClock syntax (default "perfect")
	Seed  uint64 // fleet seed; device seeds derive from it via DeviceSeed

	TimerMs   float64 // timer-checkpoint period (0 = off)
	WallMs    float64 // per-device wall budget (0 = run to completion)
	MaxCycles int64   // per-device cycle watchdog (0 = vm default)

	// Virtualize turns on exactly-once sends at the device (the paper's
	// I/O virtualization); off, the raw radio duplicates replayed sends
	// and only the gateway's dedup absorbs them.
	Virtualize bool

	Link        LinkParams // RF channel model, identical per link
	FreshnessMs float64    // gateway end-to-end freshness deadline (0 = off)

	// Remote streams each wave's arrivals to an out-of-process gateway
	// (ticsgate over HTTP via internal/gate.Client) instead of
	// adjudicating them in process; the report's gateway fields come from
	// Remote.Finalize. Nil = in-process gateway, the default.
	Remote RemoteGateway

	// Collect attaches a flight recorder to every device and folds the
	// per-device metric registries into Report.Metrics via
	// obs.Registry.Merge. Each pooled worker slot keeps one recorder,
	// reset between devices, and one running fold of the registries of
	// the devices it ran.
	Collect bool

	// Trace enables end-to-end message telemetry: a span chain per
	// (device, committed send seq) — emit, every channel attempt, gateway
	// verdict — collected in each device's job and exposed as
	// Report.Telemetry. Independent of Collect; costs nothing per device.
	Trace bool

	// Profile turns on each device's cycle profiler and merges the
	// per-device folded stacks into one fleet-wide flame graph
	// (Report.Profile) through per-slot obs.ProfileFold accumulators.
	// Implies attaching recorders like Collect does.
	Profile bool

	// AnomalyK is the MAD multiplier of the outlier pass (0 = the
	// DefaultAnomalyK modified-z-score cut).
	AnomalyK float64

	// Wave is the number of devices simulated between merges of their
	// results (0 = automatic). Each device's send log and arrivals are
	// released inside its own job, pooled machines are reset and reused
	// across waves, and with a remote gateway each wave's arrivals ship
	// out before the next wave runs, so live per-device state is bounded
	// by one wave regardless of fleet size. Every externally visible
	// result is byte-identical for any Wave value.
	Wave int
	// DisablePool builds a fresh machine and recorder for every device
	// instead of resetting pooled ones — the escape hatch the
	// pooled-reuse equivalence test compares against.
	DisablePool bool
}

// DeviceSeed derives device i's seed from the fleet seed with a
// splitmix64-style mixer. The derivation is position-based and
// stateless, so it does not depend on the order devices are simulated
// in — the root of the fleet's worker-count independence.
func DeviceSeed(fleetSeed uint64, dev int) uint64 {
	z := fleetSeed + 0x9E3779B97F4A7C15*uint64(dev+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15 // seed 0 collapses some seeded sources
	}
	return z
}

// DeviceSpec returns the replay spec describing device dev of this
// fleet — the handle for exporting a fleet member to the single-device
// tooling (ticsrun -replay, the auditor, the bisector).
func (c Config) DeviceSpec(dev int) replay.Spec {
	return replay.Spec{
		App:        c.App,
		Source:     c.Source,
		Runtime:    c.runtime(),
		Segment:    c.Segment,
		Power:      c.power(),
		Clock:      c.clock(),
		Seed:       DeviceSeed(c.Seed, dev),
		TimerMs:    c.TimerMs,
		WallMs:     c.WallMs,
		MaxCycles:  c.MaxCycles,
		Virtualize: c.Virtualize,
	}
}

func (c Config) runtime() string {
	if c.Runtime == "" {
		return "tics"
	}
	return c.Runtime
}

func (c Config) power() string {
	if c.Power == "" {
		return "harvest:40000,800"
	}
	return c.Power
}

func (c Config) clock() string {
	if c.Clock == "" {
		return "perfect"
	}
	return c.Clock
}

// DeviceOutcome is one device's run, collected by index. Res.SendLog is
// consumed by the device's channel pass and freed in the device's job;
// Sends keeps the raw-radio packet count it had.
type DeviceOutcome struct {
	ID    int
	Seed  uint64
	Sends int // packets the device offered to the radio (len of the consumed SendLog)
	// UniqueSends is the count of distinct committed sequence numbers
	// among them; seqs are contiguous from 0, so the device's packets
	// carried exactly seqs [0, UniqueSends).
	UniqueSends int
	Res         vm.Result
	Err         error
}

// Report is a fleet run's aggregate result.
type Report struct {
	Devices int     `json:"devices"`
	Workers int     `json:"workers"`
	Seed    uint64  `json:"seed"`
	Elapsed float64 `json:"elapsed_sec"` // host wall time of the device phase

	// Phases partitions the round's host wall time: image build, device
	// jobs (execution, channel, adjudication), per-wave merge, delivery
	// sort and digest, telemetry render — always all five, always in
	// that order (worker-count independent structure; only the
	// durations vary). WallSeconds is the round total the partition
	// reconciles against.
	Phases      []PhaseTime `json:"phases"`
	WallSeconds float64     `json:"wall_seconds"`

	// Resources samples the host process (heap, GC, goroutines, RSS)
	// at the end of the round — the fleet_resource_* series.
	Resources obs.ResourceSnapshot `json:"resources"`

	TotalCycles int64   `json:"total_cycles"`          // simulated cycles across all devices
	Throughput  float64 `json:"device_cycles_per_sec"` // TotalCycles / Elapsed

	Completed int `json:"completed"`
	Starved   int `json:"starved"`
	TimedOut  int `json:"timed_out"`
	Faulted   int `json:"faulted"`

	Sends       int64 `json:"sends"`        // packets offered to the radios (incl. device-side replays)
	UniqueSends int64 `json:"unique_sends"` // distinct (device, seq) packets
	Link        LinkStats
	Gateway     GatewayStats
	Lost        int64   `json:"lost"` // unique packets that never reached the gateway
	LatencyP50  float64 `json:"latency_p50_ms"`
	LatencyP99  float64 `json:"latency_p99_ms"`
	Digest      string  `json:"digest"` // gateway log digest (determinism witness)

	// Anomalies is the deterministic outlier pass over per-device
	// outcomes: stragglers, livelock suspects, freshness hotspots.
	Anomalies []Anomaly `json:"anomalies,omitempty"`

	// Metrics is the fold of every device's registry (Collect or
	// Profile), plus fleet_* rollup counters.
	Metrics *obs.Registry `json:"-"`

	// Telemetry holds the per-message span chains (Trace only).
	Telemetry *Telemetry `json:"-"`

	// Profile is the fleet-wide merge of every device's cycle profile
	// (Profile only) — one flame graph over the whole deployment.
	Profile *obs.Profile `json:"-"`

	Outcomes []DeviceOutcome `json:"-"`
	// The in-process gateway's results (all nil with a remote gateway,
	// or for a Report decoded from JSON): the deliveries in observation
	// order, each device's gateway counters, and the end-to-end latency
	// histogram.
	log      []Delivery
	devStats []GatewayStats
	lat      *obs.Histogram
	// The run's config and image, from which DeviceRegistry re-runs a
	// device (nil image for a Report decoded from JSON).
	cfg Config
	img *tics.Image
}

// GatewayLog returns the accepted deliveries in observation order (nil
// for a Report without an in-process gateway, e.g. one decoded from
// JSON).
func (r *Report) GatewayLog() []Delivery { return r.log }

// DeviceLog returns the deliveries the gateway attributed to device dev,
// in observation order (nil for a Report without an in-process gateway).
func (r *Report) DeviceLog(dev int) []Delivery {
	var out []Delivery
	for _, d := range r.log {
		if d.Dev == dev {
			out = append(out, d)
		}
	}
	return out
}

// DeviceRegistry returns device dev's own metrics registry (nil unless
// the fleet ran with Collect or Profile). The fleet keeps no per-device
// registry: this re-runs device dev with a fresh recorder from the
// run's config and image, which is exact because every device is a
// deterministic function of (config, dev) — the same argument that
// makes ExportDevice replay bit-identically.
func (r *Report) DeviceRegistry(dev int) *obs.Registry {
	if r.img == nil || !(r.cfg.Collect || r.cfg.Profile) || dev < 0 || dev >= r.Devices {
		return nil
	}
	rec := r.cfg.newRecorder()
	if out, _ := runDevice(r.img, r.cfg, dev, nil, rec); out.Err != nil {
		return nil
	}
	return rec.Metrics()
}

// newRecorder builds a device recorder. A small ring: fleet aggregation
// wants the metrics (and, with Profile, the folded stacks), not the
// event history (export a device to replay for that).
func (c Config) newRecorder() *obs.Recorder {
	return obs.NewRecorder(obs.Options{RingCap: 64, Profile: c.Profile})
}

// slot is one worker's share of the pool: a machine reset between the
// devices it runs, and, when collecting, a recorder reset likewise plus
// running folds of those devices' registries and profiles. Folding as
// the job runs means nothing of fleet size is kept for metrics or
// profiles.
type slot struct {
	m       *vm.Machine
	rec     *obs.Recorder
	metrics *obs.Registry
	prof    *obs.ProfileFold
}

// waveSize returns the number of devices simulated between merges:
// small enough to bound the live per-device results, large enough that
// the per-wave pool barrier is noise against device runtime.
func (c Config) waveSize(workers int) int {
	if c.Wave > 0 {
		return c.Wave
	}
	w := 256 * workers
	if w < 1024 {
		w = 1024
	}
	return w
}

// uniqueSends counts the distinct sequence numbers in a device's send
// log without allocating: committed seqs are contiguous from 0 and a
// rollback can only rewind the counter, so the distinct count is the
// running frontier max(seq)+1. Pinned against the map-based count by
// TestUniqueSendsMatchesSet.
func uniqueSends(log []vm.SendRec) int64 {
	var u int64
	for i := range log {
		if log[i].Seq >= u {
			u = log[i].Seq + 1
		}
	}
	return u
}

// deviceRound is what one device's job hands the per-wave merge.
type deviceRound struct {
	link     LinkStats
	log      []Delivery // in-process gateway: the device's deliveries, in seq order
	arrivals []Arrival  // remote gateway: the device's frames, in transmission order
}

// Run simulates the fleet wave by wave. Each wave's devices run in
// parallel on the worker pool — machines drawn from a small reuse pool
// and reset between devices — and each device's job also pushes its
// send log through its channel and, in-process, adjudicates its own
// frames (dedup and freshness are per (device, seq), so no other
// device's frames can change its verdicts). The jobs keep only the
// deliveries; the serial merge sums counters, and after the last wave
// the deliveries are sorted into gateway observation order for the
// latency histogram and the digest. So every externally visible result
// stays byte-identical across worker counts, wave sizes, and pooled
// versus fresh machines. With Config.Remote the jobs keep their frames
// instead, and each wave ships them to the remote gateway in device
// order.
func Run(cfg Config) (*Report, error) {
	n := cfg.Devices
	if n <= 0 {
		n = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pc := newPhaseClock()
	// Build once, share everywhere: the linked image is immutable after
	// Build (machines fork its post-link snapshot copy-on-write), and it
	// is by far the most expensive per-device setup cost.
	pc.enter(PhaseBuild)
	img, _, err := replay.BuildImage(cfg.DeviceSpec(0))
	if err != nil {
		return nil, err
	}

	outcomes := make([]DeviceOutcome, n)
	var devStats []GatewayStats
	if cfg.Remote == nil {
		devStats = make([]GatewayStats, n)
	}

	// The pool holds one slot per worker. A slot's machine and recorder
	// materialize lazily on first claim and are reset between devices
	// (rebuilt per device under DisablePool); its folds live for the
	// whole run.
	collect := cfg.Collect || cfg.Profile
	slots := make([]*slot, workers)
	pool := make(chan *slot, workers)
	for w := range slots {
		slots[w] = &slot{}
		if collect {
			slots[w].metrics = obs.NewRegistry()
		}
		if cfg.Profile {
			slots[w].prof = obs.NewProfileFold()
		}
		pool <- slots[w]
	}

	rep := &Report{
		Devices:  n,
		Workers:  workers,
		Seed:     cfg.Seed,
		Outcomes: outcomes,
		devStats: devStats,
		cfg:      cfg,
		img:      img,
	}
	var tel *Telemetry
	if cfg.Trace {
		tel = NewTelemetry(n, cfg.FreshnessMs)
	}
	var deliveries []Delivery
	var elapsed float64
	wave := cfg.waveSize(workers)
	rounds := make([]deviceRound, min(wave, n))
	for lo := 0; lo < n; lo += wave {
		hi := min(lo+wave, n)
		pc.enter(PhaseDevices)
		start := time.Now()
		ParallelFor(hi-lo, workers, func(k int) {
			i := lo + k
			s := <-pool
			if cfg.DisablePool {
				s.m, s.rec = nil, nil
			}
			if collect {
				if s.rec == nil {
					s.rec = cfg.newRecorder()
				} else {
					s.rec.Reset()
				}
			}
			outcomes[i], s.m = runDevice(img, cfg, i, s.m, s.rec)
			out := &outcomes[i]
			if s.rec != nil && out.Err == nil {
				// Run's trailing CommitObservables flushed pending
				// attribution, so the fold partitions the device's
				// cycles exactly.
				out.Err = s.metrics.Merge(s.rec.Metrics())
				if s.prof != nil {
					s.prof.Add(s.rec)
				}
			}
			pool <- s
			if out.Err != nil {
				return
			}
			log := out.Res.SendLog
			out.Sends = len(log)
			out.UniqueSends = int(uniqueSends(log))
			tel.reserve(i, out.UniqueSends)
			arr, link := transmit(i, out.Seed, cfg.Link, log, tel)
			out.Res.SendLog = nil
			r := deviceRound{link: link}
			if cfg.Remote != nil {
				r.arrivals = arr
			} else {
				devStats[i], r.log = adjudicate(arr, cfg.FreshnessMs, tel)
			}
			tel.closeChains(i)
			rounds[k] = r
		})
		elapsed += time.Since(start).Seconds()

		// The merge visits devices in index order and each round's slot
		// is released as it is read, so only one wave's results are live.
		pc.enter(PhaseChannel)
		var waveArr []Arrival
		for k := range rounds[:hi-lo] {
			i := lo + k
			if err := outcomes[i].Err; err != nil {
				return nil, fmt.Errorf("fleet: device %d: %w", i, err)
			}
			r := &rounds[k]
			rep.Sends += int64(outcomes[i].Sends)
			rep.UniqueSends += int64(outcomes[i].UniqueSends)
			rep.Link.add(r.link)
			if devStats != nil {
				rep.Gateway.add(devStats[i])
			}
			deliveries = append(deliveries, r.log...)
			waveArr = append(waveArr, r.arrivals...)
			*r = deviceRound{}
		}
		if cfg.Remote != nil {
			// The gateway phase accumulates the wire time of each wave's
			// ingest alongside the final Finalize call below.
			pc.enter(PhaseGateway)
			if err := cfg.Remote.IngestWave(waveArr); err != nil {
				return nil, fmt.Errorf("fleet: remote gateway ingest: %w", err)
			}
		}
	}
	rep.Elapsed = elapsed
	for i := range outcomes {
		res := &outcomes[i].Res
		rep.TotalCycles += res.Cycles
		switch {
		case res.Fault != nil:
			rep.Faulted++
		case res.Starved:
			rep.Starved++
		case res.TimedOut:
			rep.TimedOut++
		case res.Completed:
			rep.Completed++
		}
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.TotalCycles) / elapsed
	}

	// In-process: the per-device verdicts are final; what remains is the
	// observation order, in which the latency histogram's float Sum must
	// accumulate to stay bit-identical. Remote: the waves already
	// streamed out; Finalize fetches the service's accounting, which is
	// order-independent by construction (internal/gate keeps the
	// ArrivalBefore-minimal arrival per (device, seq)) and therefore
	// equal to the in-process result.
	pc.enter(PhaseGateway)
	if cfg.Remote != nil {
		sum, err := cfg.Remote.Finalize()
		if err != nil {
			return nil, fmt.Errorf("fleet: remote gateway finalize: %w", err)
		}
		rep.Gateway = sum.Stats
		rep.Lost = rep.UniqueSends - sum.Unique
		rep.LatencyP50 = sum.P50Ms
		rep.LatencyP99 = sum.P99Ms
		rep.Digest = sum.Digest
	} else {
		sortDeliveries(deliveries)
		lat := obs.NewHistogram(LatencyBounds)
		for i := range deliveries {
			lat.Observe(deliveries[i].ArriveMs - deliveries[i].SentMs)
		}
		rep.log, rep.lat = deliveries, lat
		rep.Lost = rep.UniqueSends - (rep.Gateway.Delivered + rep.Gateway.Expired)
		rep.LatencyP50 = lat.Quantile(0.50)
		rep.LatencyP99 = lat.Quantile(0.99)
		rep.Digest = DigestOf(deliveries)
	}
	pc.enter(PhaseTelemetry)
	rep.Telemetry = tel
	rep.Anomalies = DetectAnomalies(rep, cfg.AnomalyK)

	if collect {
		// The slots' folds add up to the device-order fold exactly: every
		// value a device recorder observes is an integer (cycles, bytes,
		// entry counts) and the fleet totals stay far below 2^53, so the
		// float gauge and histogram Sums are exact in any addition order.
		// TestSlotFoldIsOrderFree pins it.
		merged := obs.NewRegistry()
		for _, s := range slots {
			if err := merged.Merge(s.metrics); err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
		}
		merged.Add("fleet_devices", int64(n))
		merged.Add("fleet_total_cycles", rep.TotalCycles)
		merged.Add("fleet_sends_unique", rep.UniqueSends)
		merged.Add("fleet_gateway_delivered", rep.Gateway.Delivered)
		merged.Add("fleet_gateway_duplicates", rep.Gateway.Duplicates)
		merged.Add("fleet_gateway_expired", rep.Gateway.Expired)
		merged.Add("fleet_packets_lost", rep.Lost)
		// The gateway's latency histogram lands in the rollup under the
		// same bounds it was observed with, so a Prometheus
		// histogram_quantile over the exported buckets agrees with
		// Report.LatencyP50/P99 (both are obs.Histogram.Quantile). A
		// remote-attached fleet has no local histogram — its latency
		// surface is the service's own /metrics.
		if rep.lat != nil {
			if err := merged.RegisterHistogram("fleet_gateway_latency_ms", LatencyBounds).
				Merge(rep.lat); err != nil {
				return nil, fmt.Errorf("fleet: latency rollup: %w", err)
			}
		}
		for kind, c := range anomalyCounts(rep.Anomalies) {
			merged.Add("fleet_anomaly_"+kind, c)
		}
		merged.Add("fleet_anomalies", int64(len(rep.Anomalies)))
		rep.Metrics = merged
	}
	if cfg.Profile {
		fold := obs.NewProfileFold()
		for _, s := range slots {
			fold.Merge(s.prof)
		}
		p := fold.Profile()
		rep.Profile = &p
	}
	rep.Phases, rep.WallSeconds = pc.finish()
	rep.Resources = obs.SampleResources()
	return rep, nil
}

// sortDeliveries puts a fleet's deliveries in gateway observation
// order. There is one delivery per (device, seq), and on distinct
// (device, seq) ArrivalBefore reduces to (ArriveMs, Dev, Seq), so the
// result is exactly the log a single Gateway fed SortArrivals order
// keeps.
func sortDeliveries(log []Delivery) {
	slices.SortFunc(log, func(a, b Delivery) int {
		if c := cmp.Compare(a.ArriveMs, b.ArriveMs); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Dev, b.Dev); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// runDevice executes one device with fully private run state: its own
// seeded power source, sensor bank, clock, and (when collecting) the
// recorder rec, fresh or Reset. The machine itself may be a pooled one
// handed in from a previous device — it is reset to a fresh fork of the
// shared image before running, which is indistinguishable from a new
// machine. The (possibly newly created) machine is returned for the
// pool. Nothing here may touch state shared with another in-flight
// device — the -race fleet test enforces it.
func runDevice(img *tics.Image, cfg Config, dev int, m *vm.Machine, rec *obs.Recorder) (DeviceOutcome, *vm.Machine) {
	seed := DeviceSeed(cfg.Seed, dev)
	out := DeviceOutcome{ID: dev, Seed: seed}
	src, err := replay.ParsePower(cfg.power(), seed)
	if err != nil {
		out.Err = err
		return out, m
	}
	clock, err := replay.ParseClock(cfg.clock(), seed)
	if err != nil {
		out.Err = err
		return out, m
	}
	opts := tics.RunOptions{
		Power:           src,
		Clock:           clock,
		Sensors:         sensors.NewBank(seed),
		AutoCpPeriodMs:  cfg.TimerMs,
		MaxWallMs:       cfg.WallMs,
		MaxCycles:       cfg.MaxCycles,
		VirtualizeSends: cfg.Virtualize,
		Recorder:        rec,
	}
	if m == nil {
		if m, err = tics.NewMachine(img, opts); err != nil {
			out.Err = err
			return out, nil
		}
	} else if err = tics.ResetMachine(m, img, opts); err != nil {
		out.Err = err
		return out, nil
	}
	res, runErr := m.Run()
	out.Res = res
	// A program fault is a device outcome, not a fleet error; it is
	// already folded into Res.Fault. Only setup errors abort the fleet.
	_ = runErr
	return out, m
}

// ExportDevice records device dev of the fleet as a replay manifest —
// the bridge from "device 371 looks wrong in the fleet" to the
// single-device auditor/replay/bisect tooling. The recorded run executes
// the same spec with the same derived seed, so its result digest matches
// the fleet outcome and the manifest re-verifies via replay.VerifyReplay.
func ExportDevice(cfg Config, dev int) (*replay.Manifest, *replay.Run, error) {
	n := cfg.Devices
	if n <= 0 {
		n = 1
	}
	if dev < 0 || dev >= n {
		return nil, nil, errors.New("fleet: device index out of range")
	}
	return replay.Record(cfg.DeviceSpec(dev), nil)
}
