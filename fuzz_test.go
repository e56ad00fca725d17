package tics_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/vm"
)

// progGen emits random TICS-C programs: nested loops, branches, helper
// calls, global/array/local assignments — all deterministic (no division,
// bounded loops), so a continuous-power run is an exact oracle for every
// protected runtime under failure injection.
type progGen struct {
	rng   *rand.Rand
	buf   strings.Builder
	depth int
	loops int
}

func (g *progGen) expr(depth int) string {
	atoms := []string{
		"g0", "g1", "g2", "g3", "a", "b", "c",
		fmt.Sprintf("%d", g.rng.Intn(200)-100),
		fmt.Sprintf("arr[%d]", g.rng.Intn(8)),
	}
	if depth <= 0 {
		return atoms[g.rng.Intn(len(atoms))]
	}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s << %d)", g.expr(depth-1), g.rng.Intn(6))
	case 1:
		return fmt.Sprintf("(%s >> %d)", g.expr(depth-1), g.rng.Intn(6))
	case 2:
		return fmt.Sprintf("(%s %s %s ? %s : %s)",
			g.expr(depth-1), []string{"<", ">", "==", "!="}[g.rng.Intn(4)], g.expr(depth-1),
			g.expr(depth-1), g.expr(depth-1))
	default:
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), ops[g.rng.Intn(len(ops))], g.expr(depth-1))
	}
}

func (g *progGen) stmt(indent string) {
	switch g.rng.Intn(11) {
	case 0, 1, 2, 3:
		lhs := []string{"g0", "g1", "g2", "g3", "a", "b", "c",
			fmt.Sprintf("arr[%d]", g.rng.Intn(8))}[g.rng.Intn(8)]
		op := []string{"=", "+=", "-="}[g.rng.Intn(3)]
		fmt.Fprintf(&g.buf, "%s%s %s %s;\n", indent, lhs, op, g.expr(2))
	case 4, 5:
		if g.depth >= 2 {
			fmt.Fprintf(&g.buf, "%sg0 += %s;\n", indent, g.expr(1))
			return
		}
		g.depth++
		fmt.Fprintf(&g.buf, "%sif (%s) {\n", indent, g.expr(1))
		g.block(indent+"    ", 1+g.rng.Intn(2))
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.buf, "%s} else {\n", indent)
			g.block(indent+"    ", 1+g.rng.Intn(2))
		}
		fmt.Fprintf(&g.buf, "%s}\n", indent)
		g.depth--
	case 6, 7:
		if g.depth >= 2 || g.loops >= 3 {
			fmt.Fprintf(&g.buf, "%sg1 ^= %s;\n", indent, g.expr(1))
			return
		}
		g.depth++
		v := fmt.Sprintf("i%d", g.loops)
		g.loops++
		fmt.Fprintf(&g.buf, "%sfor (%s = 0; %s < %d; %s++) {\n", indent, v, v, 2+g.rng.Intn(5), v)
		g.block(indent+"    ", 1+g.rng.Intn(2))
		fmt.Fprintf(&g.buf, "%s}\n", indent)
		g.depth--
	case 8:
		fmt.Fprintf(&g.buf, "%sg2 = helper(%s, %s);\n", indent, g.expr(1), g.expr(1))
	case 9:
		if g.depth >= 2 {
			fmt.Fprintf(&g.buf, "%sg3 %s= %s;\n", indent,
				[]string{"*", "&", "|", "^"}[g.rng.Intn(4)], g.expr(1))
			return
		}
		g.depth++
		fmt.Fprintf(&g.buf, "%sswitch (%s & 3) {\n", indent, g.expr(1))
		for c := 0; c < 4; c++ {
			fmt.Fprintf(&g.buf, "%scase %d:\n", indent, c)
			g.block(indent+"    ", 1)
			if g.rng.Intn(2) == 0 {
				fmt.Fprintf(&g.buf, "%s    break;\n", indent)
			}
		}
		fmt.Fprintf(&g.buf, "%s}\n", indent)
		g.depth--
	default:
		fmt.Fprintf(&g.buf, "%sstash(%s);\n", indent, g.expr(1))
	}
}

func (g *progGen) block(indent string, n int) {
	for i := 0; i < n; i++ {
		g.stmt(indent)
	}
}

func (g *progGen) program(seed int64) string {
	g.rng = rand.New(rand.NewSource(seed))
	g.buf.Reset()
	g.depth, g.loops = 0, 0
	g.buf.WriteString(`
int g0; int g1; int g2; int g3;
int arr[8];
int slot;

int helper(int x, int y) {
    int t = x ^ (y << 1);
    if (t < 0) { t = -t; }
    return t + g0;
}

void stash(int v) {
    arr[slot & 7] = v;
    slot++;
}

int main() {
    int a = 1;
    int b = 2;
    int c = 3;
    int i0;
    int i1;
    int i2;
`)
	g.block("    ", 8+g.rng.Intn(8))
	g.buf.WriteString(`
    out(0, g0); out(0, g1); out(0, g2); out(0, g3);
    out(0, a); out(0, b); out(0, c); out(0, slot);
    for (i0 = 0; i0 < 8; i0++) { out(1, arr[i0]); }
    return 0;
}
`)
	return g.buf.String()
}

// FuzzTICSInvariants runs random programs on TICS under failure injection
// with the trace auditor attached: every run must complete, match the
// continuous-power oracle, and satisfy every audited invariant (rollback
// exactness, undo-log completeness, checkpoint atomicity).
func FuzzTICSInvariants(f *testing.F) {
	f.Add(int64(0), int64(23_000))
	f.Add(int64(3), int64(7_919))
	f.Add(int64(11), int64(50_021))
	f.Fuzz(func(t *testing.T, seed, k int64) {
		// Clamp the failure period to windows TICS can make progress in.
		if k < 0 {
			k = -k
		}
		k = 5_000 + k%95_000
		var g progGen
		src := g.program(seed)
		oracle, err := tics.Run(src, tics.BuildOptions{Runtime: tics.RTPlain}, tics.RunOptions{})
		if err != nil || !oracle.Completed {
			t.Fatalf("oracle: %v completed=%v\n%s", err, oracle.Completed, src)
		}
		img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		m, err := tics.NewMachine(img, tics.RunOptions{
			Power:          &power.FailEvery{Cycles: k, OffMs: 3},
			AutoCpPeriodMs: 2,
			MaxCycles:      500_000_000,
			Recorder:       obs.NewRecorder(obs.Options{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		aud, err := audit.Attach(m, audit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d k=%d: %v\n%s", seed, k, err, src)
		}
		if !res.Completed {
			t.Fatalf("seed %d k=%d: incomplete (starved=%v)\n%s", seed, k, res.Starved, src)
		}
		if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
			t.Fatalf("seed %d k=%d: diverged\n got  %v\n want %v\n%s",
				seed, k, res.OutLog, oracle.OutLog, src)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("seed %d k=%d: %v\n%s", seed, k, err, src)
		}
	})
}

// FuzzRecordReplay records random programs under randomized power models
// and requires every manifest to replay bit-identically.
func FuzzRecordReplay(f *testing.F) {
	f.Add(int64(0), uint8(0))
	f.Add(int64(5), uint8(1))
	f.Add(int64(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, powIdx uint8) {
		powers := []string{"fail:9973", "duty:0.48", "harvest:40000,800"}
		var g progGen
		spec := replay.Spec{
			Source:    g.program(seed),
			Runtime:   "tics",
			Power:     powers[int(powIdx)%len(powers)],
			Clock:     "perfect",
			Seed:      uint64(seed)*2654435761 + 1,
			TimerMs:   2,
			MaxCycles: 500_000_000,
		}
		man, run, err := replay.Record(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		rerun, err := replay.Replay(man, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.VerifyReplay(man, rerun); err != nil {
			idx, _ := replay.FirstDivergence(run.Events, rerun.Events)
			t.Fatalf("seed %d power %s: %v (first divergence at event %d)",
				seed, spec.Power, err, idx)
		}
	})
}

// TestFuzzDifferential generates random programs and requires TICS and the
// naive checkpointer to commit exactly the oracle's output under failure
// injection — a broad-coverage complement to the hand-written torture
// programs.
func TestFuzzDifferential(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	var g progGen
	for seed := int64(0); seed < int64(n); seed++ {
		src := g.program(seed)
		oracle, err := tics.Run(src, tics.BuildOptions{Runtime: tics.RTPlain}, tics.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v\n%s", seed, err, src)
		}
		if !oracle.Completed {
			t.Fatalf("seed %d: oracle incomplete", seed)
		}
		// Optimizer equivalence: O0 must compute exactly what O2 does.
		o0, err := tics.Run(src, tics.BuildOptions{Runtime: tics.RTPlain}.WithO0(), tics.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: O0: %v\n%s", seed, err, src)
		}
		if !reflect.DeepEqual(o0.OutLog, oracle.OutLog) {
			t.Fatalf("seed %d: O0 and O2 disagree\n got  %v\n want %v\n%s", seed, o0.OutLog, oracle.OutLog, src)
		}
		for _, cfg := range []tics.BuildOptions{
			{Runtime: tics.RTTICS},
			{Runtime: tics.RTTICS, UndoBlockBytes: 16},
			{Runtime: tics.RTTICS, SegmentBytes: 256, DifferentialCheckpoints: true},
			{Runtime: tics.RTMementos},
		} {
			img, err := tics.Build(src, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: build: %v\n%s", seed, cfg.Runtime, err, src)
			}
			for _, k := range []int64{23_000, 7_919} {
				m, err := tics.NewMachine(img, tics.RunOptions{
					Power:          &power.FailEvery{Cycles: k, OffMs: 3},
					AutoCpPeriodMs: 2,
					MaxCycles:      500_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("seed %d %s k=%d: %v\n%s", seed, cfg.Runtime, k, err, src)
				}
				if !res.Completed {
					t.Fatalf("seed %d %s k=%d: incomplete (starved=%v)\n%s", seed, cfg.Runtime, k, res.Starved, src)
				}
				if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
					t.Fatalf("seed %d %s k=%d: diverged\n got  %v\n want %v\n%s",
						seed, cfg.Runtime, k, res.OutLog, oracle.OutLog, src)
				}
			}
		}
	}
}

// FuzzAnalysis throws arbitrary source at the ticsvet static analyzer:
// it must never panic or loop, and must either reject the input with a
// compile error or terminate with a sorted diagnostic list. Valid random
// programs from progGen additionally exercise every analysis pass on
// structurally rich inputs (nested loops, helper calls, arrays).
func FuzzAnalysis(f *testing.F) {
	f.Add("int main() { return 0; }")
	f.Add("@expires_after=100 int s;\nint main() { s @= sense(0); send(s); return 0; }")
	f.Add("int g;\nint r(int n) { if (n <= 0) { return 0; } return r(n - 1); }\nint main() { g = r(3); return 0; }")
	f.Add("int main() { @expires(") // truncated garbage
	var g progGen
	f.Add(g.program(7))
	f.Fuzz(func(t *testing.T, src string) {
		diags, err := analysis.AnalyzeSource(src, analysis.Options{
			StackBytes:      256,
			GapBudgetCycles: 10_000,
		})
		if err != nil {
			// Rejected input still must render through the shared formatter.
			_ = analysis.FormatError("fuzz.c", err)
			return
		}
		for i, d := range diags {
			if d.Code == "" || d.Msg == "" {
				t.Fatalf("empty diagnostic %+v\n%s", d, src)
			}
			if i > 0 && (diags[i-1].Pos.Line > d.Pos.Line ||
				(diags[i-1].Pos.Line == d.Pos.Line && diags[i-1].Pos.Col > d.Pos.Col)) {
				t.Fatalf("diagnostics unsorted at %d\n%s", i, src)
			}
		}
	})
}

// FuzzResetPoint is the randomized shadow of the exhaustive reset-point
// model checker (internal/mc): where the checker enumerates every
// instrumentation boundary, the fuzzer throws a reboot at an *arbitrary*
// cycle — including mid-instruction boundaries the checker's stamp
// enumeration deliberately skips — and requires the same verdict the
// checker certifies for TICS: the run completes, the trace auditor stays
// silent, and committed output matches the continuous-power oracle. The
// schedule travels through its canonical "sched:C@OFF" power spec, so the
// fuzzer also pins the counterexample format the checker emits.
func FuzzResetPoint(f *testing.F) {
	f.Add(int64(0), uint32(4_000))
	f.Add(int64(7), uint32(77_000))
	f.Add(int64(13), uint32(1))
	f.Fuzz(func(t *testing.T, seed int64, cut uint32) {
		var g progGen
		src := g.program(seed)
		img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		om, err := tics.NewMachine(img, tics.RunOptions{AutoCpPeriodMs: 2})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := om.Run()
		if err != nil || !oracle.Completed {
			t.Fatalf("oracle: %v completed=%v\n%s", err, oracle.Completed, src)
		}
		// Land the cut strictly inside the oracle's execution.
		c := 1 + int64(cut)%(oracle.Cycles-1)
		sched, err := power.ParseSchedule(fmt.Sprintf("sched:%d@20", c))
		if err != nil {
			t.Fatalf("canonical schedule spec did not parse: %v", err)
		}
		m, err := tics.NewMachine(img, tics.RunOptions{
			Power:          sched,
			AutoCpPeriodMs: 2,
			MaxCycles:      oracle.Cycles*4 + 1_000_000,
			Recorder:       obs.NewRecorder(obs.Options{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		aud, err := audit.Attach(m, audit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d cut=%d: %v\n%s", seed, c, err, src)
		}
		if !res.Completed {
			t.Fatalf("seed %d cut=%d: incomplete (starved=%v fault=%q)\n%s",
				seed, c, res.Starved, res.Fault, src)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("seed %d cut=%d: audit: %v\n%s", seed, c, err, src)
		}
		if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
			t.Fatalf("seed %d cut=%d: diverged from oracle\n got  %v\n want %v\n%s",
				seed, c, res.OutLog, oracle.OutLog, src)
		}
	})
}

// FuzzResumeMatchesFresh is the shadow of the model checker's shared
// prefixes: a run paused at an arbitrary instruction boundary s of the
// continuous-power run, copied onto another machine and resumed under the
// schedule "sched:c@20" (s <= c) must be indistinguishable from a fresh
// run of that schedule: the same vm.Result (logs, counters, runtime and
// memory stats included), the same audit verdicts and the same recorder
// events, metrics and profile. Odd seeds use a remanence clock, whose
// error model carries state across the copy; seeds divisible by three log
// undo entries per 16-byte block, so stores after the pause can rely on
// an entry logged before it.
func FuzzResumeMatchesFresh(f *testing.F) {
	f.Add(int64(0), uint32(4_000), uint32(3_000))
	f.Add(int64(7), uint32(77_000), uint32(76_990))
	f.Add(int64(13), uint32(1), uint32(0))
	f.Add(int64(4), uint32(120_000), uint32(9))
	f.Add(int64(6), uint32(60_000), uint32(58_000))
	f.Add(int64(9), uint32(90_000), uint32(88_500))
	f.Add(int64(309), uint32(76_618), uint32(77_105)) // a block logged before the pause, stored to after it
	f.Fuzz(func(t *testing.T, seed int64, cut, pause uint32) {
		var g progGen
		src := g.program(seed)
		bo := tics.BuildOptions{Runtime: tics.RTTICS}
		if seed%3 == 0 {
			bo.UndoBlockBytes = 16
		}
		img, err := tics.Build(src, bo)
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		clock := "perfect"
		if seed%2 != 0 {
			clock = "remanence:0.1,5000"
		}
		type run struct {
			m   *vm.Machine
			rec *obs.Recorder
			aud *audit.Auditor
		}
		start := func(windows []power.SchedWindow) run {
			k, err := replay.ParseClock(clock, 3)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(obs.Options{RingCap: 256, Profile: true})
			m, err := tics.NewMachine(img, tics.RunOptions{
				Power:           &power.Schedule{Windows: windows},
				Clock:           k,
				AutoCpPeriodMs:  2,
				MaxCycles:       500_000_000,
				VirtualizeSends: true,
				Recorder:        rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			aud, err := audit.Attach(m, audit.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return run{m, rec, aud}
		}
		observe := func(r run, res vm.Result) string {
			var b strings.Builder
			fmt.Fprintf(&b, "%+v\n%v\n", res, r.aud.Violations())
			fmt.Fprintf(&b, "seq=%d dropped=%d\n%v\n", r.rec.Seq(), r.rec.Dropped(), r.rec.Events())
			r.rec.Metrics().Dump(&b)
			r.rec.Finish()
			fmt.Fprintf(&b, "%v\n", r.rec.Profile())
			return b.String()
		}

		oracle := start(nil)
		ores, _ := oracle.m.Run()
		if ores.Cycles < 2 {
			t.Skip("program too short to cut")
		}
		c := 1 + int64(cut)%(ores.Cycles-1)
		s := int64(pause) % (c + 1)
		windows := []power.SchedWindow{{Cycles: c, OffMs: 20}}

		fresh := start(windows)
		fres, _ := fresh.m.Run()
		want := observe(fresh, fres)

		leader := start(nil)
		var got string
		leader.m.PauseAt(s-1, func() {
			defer leader.m.Halt()
			if leader.m.Cycles() > c {
				return // the step crossing s also crossed the cut
			}
			child := start(windows)
			if !child.m.CopyState(leader.m) || !child.aud.CopyState(leader.aud) {
				t.Fatal("TICS machine state did not copy")
			}
			res, err := child.m.Resume()
			if err != nil && res.Fault == nil {
				t.Fatalf("resume at cycle %d of cut %d: %v", leader.m.Cycles(), c, err)
			}
			got = observe(child, res)
		})
		leader.m.Run()
		if got != "" && got != want {
			t.Fatalf("seed %d cut %d pause %d: resumed run differs from a fresh one\n--- resumed ---\n%s\n--- fresh ---\n%s\n%s",
				seed, c, s, got, want, src)
		}
	})
}
