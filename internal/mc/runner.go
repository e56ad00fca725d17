package mc

import (
	"fmt"
	"sync"
	"sync/atomic"

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

	// executed counts the simulated cycles actually executed: whole
	// fresh runs, leader passes, and resumed runs from their pause point.
	executed atomic.Int64
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

// execution is one schedule's run: a pooled machine reset for the
// schedule, with the auditor, the freshness tracker and (when collected)
// the stamp collector attached.
type execution struct {
	pooled
	aud     *audit.Auditor
	tracker *freshTracker
	stamps  []int64
}

// start acquires a machine for the schedule windows (nil = uninterrupted)
// and attaches the observers; collectStamps gathers event+store cycle
// stamps for deeper enumeration.
func (r *runner) start(windows []power.SchedWindow, collectStamps bool) (*execution, error) {
	p := r.acquire()
	opts, err := r.runOptions(&power.Schedule{Windows: windows}, p.rec)
	if err != nil {
		return nil, err
	}
	if p.m == nil {
		p.m, err = tics.NewMachine(r.img, opts)
	} else {
		err = tics.ResetMachine(p.m, r.img, opts)
	}
	if err != nil {
		return nil, err
	}
	e := &execution{pooled: p}
	if e.aud, err = audit.Attach(p.m, audit.Options{}); err != nil {
		r.release(p)
		return nil, err
	}
	e.tracker = newFreshTracker(r.prov, r.budgetMs)
	e.tracker.attach(p.m, p.rec)
	if collectStamps {
		m := p.m
		p.rec.AddSink(stampSink{out: &e.stamps})
		m.ObserveStores(func(addr uint32, size int, val uint32, deviceMs int64) {
			e.stamps = append(e.stamps, m.Cycles())
		})
	}
	return e, nil
}

// copyState makes e's machine and observers continue from src's current
// state (see vm.Machine.CopyState); false when it cannot.
func (e *execution) copyState(src *execution) bool {
	if !e.m.CopyState(src.m) || !e.aud.CopyState(src.aud) {
		return false
	}
	e.tracker.copyState(src.tracker)
	e.stamps = append(e.stamps[:0], src.stamps...)
	return true
}

// finish gathers the outcome of e's finished run and returns its machine
// to the pool. collectGlobals snapshots the committed global data bytes.
func (r *runner) finish(e *execution, res vm.Result, collectGlobals bool) runOutcome {
	out := runOutcome{
		digest:     digestOf(res),
		violations: e.aud.Violations(),
		auditTotal: e.aud.Total(),
		stale:      e.tracker.stale,
		outs:       res.OutLog,
		marks:      res.MarkCounts,
		stamps:     e.stamps,
		cycles:     res.Cycles,
	}
	for _, s := range res.SendLog {
		out.sendSeqs = append(out.sendSeqs, s.Seq)
		out.sendVals = append(out.sendVals, s.Value)
	}
	if collectGlobals {
		out.globals = r.committedGlobals(e.m)
	}
	r.release(e.pooled)
	return out
}

// run executes one schedule (nil = uninterrupted) from cycle 0 and
// gathers the outcome. It is the reference every resumed run must match.
func (r *runner) run(windows []power.SchedWindow, collectGlobals, collectStamps bool) (runOutcome, error) {
	e, err := r.start(windows, collectStamps)
	if err != nil {
		return runOutcome{}, err
	}
	res, _ := e.m.Run() // a fault is itself a verdict, not an executor error
	r.executed.Add(res.Cycles)
	return r.finish(e, res, collectGlobals), nil
}

// resume executes the schedule windows from the paused leader's current
// state, which must lie inside windows' last window; it reports false
// when the state cannot be copied (the runtime cannot copy its state).
func (r *runner) resume(leader *execution, windows []power.SchedWindow, collectGlobals, collectStamps bool) (runOutcome, bool, error) {
	e, err := r.start(windows, collectStamps)
	if err != nil {
		return runOutcome{}, false, err
	}
	if !e.copyState(leader) {
		r.release(e.pooled)
		return runOutcome{}, false, nil
	}
	res, err := e.m.Resume()
	if err != nil && res.Fault == nil {
		r.release(e.pooled)
		return runOutcome{}, false, err
	}
	r.executed.Add(res.Cycles - leader.m.Cycles())
	return r.finish(e, res, collectGlobals), true, nil
}

// pauseSlack is how far before a child's reboot cut a leader pauses
// for it, in cycles spent in the cut window: the first instruction
// boundary past cut-pauseSlack serves every child whose cut it has not
// passed. A resumed child re-executes at most pauseSlack cycles the
// leader already ran; a child whose cut a single step of more than
// pauseSlack cycles jumps over runs from cycle 0 instead.
const pauseSlack = 4096

// runUnit executes the schedules kids, children of the parent schedule
// prefix ordered by their last window's length, into out. A lone child
// runs from cycle 0. Otherwise a leader re-runs the parent with the same
// observers: up to the parent's end the children's runs are the
// parent's run, so at a pause point just before each child's cut the
// child copies the leader's state onto a pooled machine and resumes
// inside the cut window, dying at exactly the cycle a run from cycle 0
// would. The leader stops after its last child. Children the leader
// could not serve (it ended, faulted, read Remaining, or a step jumped
// their cut) run from cycle 0.
func (r *runner) runUnit(prefix []power.SchedWindow, kids []int, scheds []schedule, out []runOutcome, collectGlobals, collectStamps bool) error {
	if len(kids) == 1 {
		var err error
		out[kids[0]], err = r.run(scheds[kids[0]].windows, collectGlobals, collectStamps)
		return err
	}
	leader, err := r.start(prefix, collectStamps)
	if err != nil {
		return err
	}
	m := leader.m
	target := len(prefix) // the children's cut window
	cut := func(k int) int64 { return scheds[kids[k]].windows[target].Cycles }
	var (
		next     int   // kids[next:] are not served yet
		fallback []int // kids to run from cycle 0
		runErr   error
		hook     func()
	)
	arm := func() {
		if next == len(kids) {
			m.Halt()
			return
		}
		idx, spent := m.Window()
		if idx < target {
			// Still in a parent window: pause again where it ends.
			m.PauseAt(m.Cycles()+prefix[idx].Cycles-spent, hook)
			return
		}
		m.PauseAt(m.Cycles()+cut(next)-pauseSlack-spent, hook)
	}
	hook = func() {
		if idx, spent := m.Window(); idx == target {
			for next < len(kids) && cut(next)-pauseSlack < spent {
				k := kids[next]
				if cut(next) < spent {
					fallback = append(fallback, k) // the last step jumped the cut
					next++
					continue
				}
				o, ok, err := r.resume(leader, scheds[k].windows, collectGlobals, collectStamps)
				if err != nil || !ok {
					runErr = err
					m.Halt() // no state copy: the rest run from cycle 0
					return
				}
				out[k] = o
				next++
			}
		}
		arm()
	}
	arm()
	m.Run() // the leader's own verdict is its parent's, judged already
	r.executed.Add(m.Cycles())
	r.release(leader.pooled)
	if runErr != nil {
		return runErr
	}
	for _, k := range append(fallback, kids[next:]...) {
		if out[k], err = r.run(scheds[k].windows, collectGlobals, collectStamps); err != nil {
			return err
		}
	}
	return nil
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
