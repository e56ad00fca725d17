package mc

import (
	"fmt"
	"sync"

	tics "repro"
	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// runOutcome is everything one schedule execution contributes to the
// sweep verdict. Every field is a deterministic function of (spec,
// schedule), which is what makes the sweep worker-count independent.
type runOutcome struct {
	digest     replay.ResultDigest
	violations []audit.Violation
	auditTotal int64
	stale      []StaleSend
	sendSeqs   []int64
	sendVals   []int32
	globals    []byte // committed global data bytes (nil when not collected)
	outs       map[int32][]int32
	marks      []int64
	stamps     []int64 // cycle stamps of events+stores (depth>=2 only)
	cycles     int64
}

// runner executes schedules against one shared image using a pool of
// COW-forked machines, each with its recorder: the first run on each
// pool slot builds a machine from the image's vm.Prepared snapshot,
// later runs rebind it with Machine.Reset and return the recorder to its
// fresh state with Recorder.Reset (which also drops the previous run's
// audit, tracker and stamp sinks) — both indistinguishable from new
// ones, pinned by the pooled-reuse tests — so a 10k-schedule sweep does
// not pay 10k image loads or recorder builds.
type runner struct {
	img       *tics.Image
	spec      replay.Spec
	prov      *provenance
	budgetMs  int64
	maxCycles int64 // starvation bound for interrupted runs (0 = spec default)

	mu   sync.Mutex
	pool []pooled
}

// pooled is one reusable machine and the recorder attached to it.
type pooled struct {
	m   *vm.Machine
	rec *obs.Recorder
}

// acquire takes a pooled machine and its reset recorder, or a nil
// machine and a new recorder when the pool is empty.
func (r *runner) acquire() pooled {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.pool); n > 0 {
		p := r.pool[n-1]
		r.pool = r.pool[:n-1]
		p.rec.Reset()
		return p
	}
	return pooled{rec: obs.NewRecorder(obs.Options{RingCap: 64})}
}

func (r *runner) release(p pooled) {
	r.mu.Lock()
	r.pool = append(r.pool, p)
	r.mu.Unlock()
}

func (r *runner) runOptions(src power.Source, rec *obs.Recorder) (tics.RunOptions, error) {
	clockSpec := r.spec.Clock
	if clockSpec == "" {
		clockSpec = "perfect"
	}
	clock, err := replay.ParseClock(clockSpec, r.spec.Seed)
	if err != nil {
		return tics.RunOptions{}, err
	}
	maxCycles := r.spec.MaxCycles
	if r.maxCycles > 0 {
		maxCycles = r.maxCycles
	}
	return tics.RunOptions{
		Power:           src,
		Clock:           clock,
		Sensors:         sensors.NewBank(r.spec.Seed),
		AutoCpPeriodMs:  r.spec.TimerMs,
		MaxWallMs:       r.spec.WallMs,
		MaxCycles:       maxCycles,
		VirtualizeSends: r.spec.Virtualize,
		Recorder:        rec,
	}, nil
}

// run executes one schedule (nil = uninterrupted) and gathers the
// outcome. collectGlobals snapshots the committed global data bytes;
// collectStamps gathers event+store cycle stamps for deeper enumeration.
func (r *runner) run(windows []power.SchedWindow, collectGlobals, collectStamps bool) (runOutcome, error) {
	src := &power.Schedule{Windows: windows}
	p := r.acquire()
	rec := p.rec
	opts, err := r.runOptions(src, rec)
	if err != nil {
		return runOutcome{}, err
	}

	m := p.m
	if m == nil {
		m, err = tics.NewMachine(r.img, opts)
	} else {
		err = tics.ResetMachine(m, r.img, opts)
	}
	if err != nil {
		return runOutcome{}, err
	}
	defer r.release(pooled{m: m, rec: rec})

	aud, err := audit.Attach(m, audit.Options{})
	if err != nil {
		return runOutcome{}, err
	}
	tracker := newFreshTracker(r.prov, r.budgetMs)
	tracker.attach(m, rec)

	var stamps []int64
	if collectStamps {
		rec.AddSink(stampSink{m: m, out: &stamps})
		m.ObserveStores(func(addr uint32, size int, val uint32, deviceMs int64) {
			stamps = append(stamps, m.Cycles())
		})
	}

	res, _ := m.Run() // a fault is itself a verdict, not an executor error

	out := runOutcome{
		digest:     digestOf(res),
		violations: aud.Violations(),
		auditTotal: aud.Total(),
		stale:      tracker.stale,
		outs:       res.OutLog,
		marks:      res.MarkCounts,
		stamps:     stamps,
		cycles:     res.Cycles,
	}
	for _, s := range res.SendLog {
		out.sendSeqs = append(out.sendSeqs, s.Seq)
		out.sendVals = append(out.sendVals, s.Value)
	}
	if collectGlobals {
		out.globals = r.committedGlobals(m)
	}
	return out, nil
}

// committedGlobals concatenates the data bytes of every program global
// (not the whole [GlobalsBase, StackBase) region: shadow timestamp
// slots, mark counters and runtime bookkeeping are excluded, so the
// comparison only judges state the program owns).
func (r *runner) committedGlobals(m *vm.Machine) []byte {
	var out []byte
	for _, s := range r.prov.spans {
		out = append(out, m.Mem.ReadBytes(s.base, s.size)...)
	}
	return out
}

// digestOf mirrors replay's result digest so mc reports and manifests
// agree field-for-field.
func digestOf(res vm.Result) replay.ResultDigest {
	d := replay.ResultDigest{
		Completed: res.Completed,
		Starved:   res.Starved,
		TimedOut:  res.TimedOut,
		Cycles:    res.Cycles,
		Failures:  res.Failures,
		Restores:  res.Restores,
		Commits:   res.TotalCheckpoints,
		Sends:     len(res.SendLog),
	}
	if res.Fault != nil {
		d.Fault = res.Fault.Error()
	}
	return d
}

// stampSink collects the cycle stamp of every emitted event.
type stampSink struct {
	m   *vm.Machine
	out *[]int64
}

func (s stampSink) OnEvent(_ int64, ev obs.Event) {
	*s.out = append(*s.out, ev.Cycles)
}

// equalOutcome compares the committed observables of two runs (globals,
// out channels, mark counters, committed sends).
func equalOutcome(a, b runOutcome) (string, bool) {
	if string(a.globals) != string(b.globals) {
		return "committed global bytes diverge from the oracle", false
	}
	if len(a.marks) != len(b.marks) {
		return "mark counter count diverges", false
	}
	for i := range a.marks {
		if a.marks[i] != b.marks[i] {
			return fmt.Sprintf("mark counter %d diverges: %d vs oracle %d", i, a.marks[i], b.marks[i]), false
		}
	}
	if len(a.outs) != len(b.outs) {
		return "out channel set diverges", false
	}
	for ch, vals := range a.outs {
		ref, ok := b.outs[ch]
		if !ok || len(ref) != len(vals) {
			return fmt.Sprintf("out channel %d length diverges", ch), false
		}
		for i := range vals {
			if vals[i] != ref[i] {
				return fmt.Sprintf("out channel %d[%d] = %d, oracle %d", ch, i, vals[i], ref[i]), false
			}
		}
	}
	if len(a.sendVals) != len(b.sendVals) {
		return fmt.Sprintf("committed send count %d, oracle %d", len(a.sendVals), len(b.sendVals)), false
	}
	for i := range a.sendVals {
		if a.sendVals[i] != b.sendVals[i] || a.sendSeqs[i] != b.sendSeqs[i] {
			return fmt.Sprintf("committed send %d = (%d, seq %d), oracle (%d, seq %d)",
				i, a.sendVals[i], a.sendSeqs[i], b.sendVals[i], b.sendSeqs[i]), false
		}
	}
	return "", true
}
