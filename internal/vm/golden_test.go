package vm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/vm"
)

var updateStepGolden = flag.Bool("update-step", false, "rewrite testdata/golden_step.txt")

const goldenStepPath = "testdata/golden_step.txt"

// isrSource is the interrupt-driven golden program: a timer ISR keeps a
// non-volatile tick counter while main does foreground work and sends.
const isrSource = `
int ticks;
int work;

void isr_timer() {
    ticks++;
}

int main() {
    int i;
    for (i = 0; i < 3000; i++) {
        work += i & 7;
        if ((i & 255) == 0) { send(work + ticks); }
    }
    out(0, work);
    out(1, ticks);
    return 0;
}
`

// faultSources are golden programs that end in a machine fault: a
// recursion deeper than any stack, and a division by a zero global.
var faultSources = map[string]string{
	"recurse": `
int depth(int n) {
    int a[6];
    a[n & 3] = n;
    if (n == 0) { return 0; }
    return depth(n - 1) + a[n & 3];
}
int main() { out(0, depth(100000)); return 0; }
`,
	"divzero": `
int z;
int acc;
int main() {
    int i;
    for (i = 0; i < 500; i++) { acc += i * 3; }
    out(0, acc / z);
    return 0;
}
`,
}

// stepCase is one golden run: a program built for a runtime, run under a
// power source and a clock with the given machine options.
type stepCase struct {
	name    string
	spec    replay.Spec // App or Source, Runtime, Power, Clock, Seed
	irqMs   float64
	profile bool // attach a profiling recorder
}

// stepCases is the golden grid: every shipped app under every runtime,
// power source and clock, alternating the checkpoint timer and the wall
// budget, plus the interrupt-driven program under plain and the three
// checkpointing runtimes and the faulting programs under three runtimes.
func stepCases() []stepCase {
	runtimes := []string{"plain", "tics", "mementos", "chinchilla", "alpaca", "ink", "mayfly"}
	powers := []string{"continuous", "fail:400", "fail:1500", "fail:7000", "harvest:40000,800"}
	clocks := []string{"perfect", "rtc:10", "remanence:0.1,5000"}
	var out []stepCase
	i := 0
	for _, app := range apps.All() {
		for _, rt := range runtimes {
			for _, p := range powers {
				for _, c := range clocks {
					spec := replay.Spec{App: app.Name, Runtime: rt, Power: p, Clock: c, Seed: uint64(i + 1), MaxCycles: 600_000}
					if i%2 == 0 {
						spec.TimerMs = 2
					}
					if i%3 != 1 {
						spec.WallMs = 250
					}
					spec.Virtualize = i%4 == 3
					out = append(out, stepCase{
						name:    fmt.Sprintf("%s/%s/%s/%s/t%g/w%g/v%t", app.Name, rt, p, c, spec.TimerMs, spec.WallMs, spec.Virtualize),
						spec:    spec,
						profile: i%5 == 0,
					})
					i++
				}
			}
		}
	}
	for _, rt := range runtimes[:4] {
		for _, p := range []string{"continuous", "fail:2500"} {
			out = append(out, stepCase{
				name:    fmt.Sprintf("isr/%s/%s", rt, p),
				spec:    replay.Spec{Source: isrSource, Runtime: rt, Power: p, Clock: "perfect", Seed: 3, TimerMs: 1, MaxCycles: 2_000_000},
				irqMs:   2,
				profile: true,
			})
		}
	}
	for _, name := range []string{"divzero", "recurse"} {
		for _, rt := range runtimes[:3] {
			for _, p := range []string{"continuous", "fail:1500"} {
				out = append(out, stepCase{
					name: fmt.Sprintf("fault/%s/%s/%s", name, rt, p),
					spec: replay.Spec{Source: faultSources[name], Runtime: rt, Power: p, Clock: "perfect", Seed: 5, TimerMs: 2, MaxCycles: 2_000_000},
				})
			}
		}
	}
	return out
}

// stepDump is the canonical text of a run: every Result field (floats by
// their exact bits), the device clock's final reading, a hash of final
// memory and, with a recorder, its event count and profile totals.
func stepDump(res vm.Result, m *vm.Machine, rec *obs.Recorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%t starved=%t timedout=%t\n", res.Completed, res.Starved, res.TimedOut)
	if res.Fault != nil {
		fmt.Fprintf(&b, "fault=%s\n", res.Fault)
	}
	fmt.Fprintf(&b, "cycles=%d on=%016x off=%016x failures=%d restores=%d\n",
		res.Cycles, math.Float64bits(res.OnMs), math.Float64bits(res.OffMs), res.Failures, res.Restores)
	fmt.Fprintf(&b, "clock=%d interrupts=%d checkpoints=%d\n", m.Clock().Now(), res.Interrupts, res.TotalCheckpoints)
	writeSorted(&b, "cp", res.Checkpoints)
	writeSorted(&b, "rt", res.RuntimeStats)
	for _, s := range res.SendLog {
		fmt.Fprintf(&b, "send v=%d true=%016x est=%d seq=%d emit=%016x/%d pc=%#x\n",
			s.Value, math.Float64bits(s.TrueMs), s.EstMs, s.Seq, math.Float64bits(s.EmitTrueMs), s.EmitEstMs, s.PC)
	}
	chans := make([]int, 0, len(res.OutLog))
	for ch := range res.OutLog {
		chans = append(chans, int(ch))
	}
	sort.Ints(chans)
	for _, ch := range chans {
		fmt.Fprintf(&b, "out %d %v\n", ch, res.OutLog[int32(ch)])
	}
	fmt.Fprintf(&b, "marks=%v mem=%+v\n", res.MarkCounts, res.MemStats)
	snap := sha256.Sum256(m.Mem.Snapshot())
	fmt.Fprintf(&b, "memory=%x\n", snap)
	if rec != nil {
		rec.Finish()
		fmt.Fprintf(&b, "events=%d\n", rec.Seq())
		writeSorted(&b, "prof", rec.Profile().ByCategory)
	}
	return b.String()
}

func writeSorted(b *strings.Builder, tag string, kv map[string]int64) {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s %s=%d\n", tag, k, kv[k])
	}
}

// builtImage is a golden program's image, or why it does not build.
type builtImage struct {
	img *tics.Image
	err error
}

// runStepCase runs one golden case, reusing the pooled machine for img
// when there is one (so the grid covers Reset as well as New), and
// returns its dump. A program the runtime cannot build dumps its error.
func runStepCase(t *testing.T, c stepCase, images map[string]builtImage, pool map[*tics.Image]*vm.Machine) string {
	key := c.spec.App + c.spec.Source + "/" + c.spec.Runtime
	b, ok := images[key]
	if !ok {
		b.img, _, b.err = replay.BuildImage(c.spec)
		images[key] = b
	}
	if b.err != nil {
		return "build error: " + b.err.Error()
	}
	img := b.img
	src, err := replay.ParsePower(c.spec.Power, c.spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := replay.ParseClock(c.spec.Clock, c.spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var rec *obs.Recorder
	if c.profile {
		rec = obs.NewRecorder(obs.Options{RingCap: 64, Profile: true})
	}
	opts := tics.RunOptions{
		Power:             src,
		Clock:             clock,
		Sensors:           sensors.NewBank(c.spec.Seed),
		AutoCpPeriodMs:    c.spec.TimerMs,
		MaxCycles:         c.spec.MaxCycles,
		MaxWallMs:         c.spec.WallMs,
		InterruptPeriodMs: c.irqMs,
		VirtualizeSends:   c.spec.Virtualize,
		Recorder:          rec,
	}
	m := pool[img]
	if m == nil {
		if m, err = tics.NewMachine(img, opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pool[img] = m
	} else if err := tics.ResetMachine(m, img, opts); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res, _ := m.Run() // a fault is itself a pinned outcome
	return stepDump(res, m, rec)
}

// TestStepGolden pins the SHA-256 of the canonical dump of every golden
// run, so a change to how the machine executes instructions must
// reproduce every count, float bit, log and final memory byte. Regenerate
// with go test ./internal/vm -run TestStepGolden -update-step.
func TestStepGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateStepGolden {
		b, err := os.ReadFile(goldenStepPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			name, sum, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed golden line %q", line)
			}
			want[name] = sum
		}
	}
	images := map[string]builtImage{}
	pool := map[*tics.Image]*vm.Machine{}
	var sb strings.Builder
	cases := stepCases()
	for _, c := range cases {
		dump := runStepCase(t, c, images, pool)
		s := sha256.Sum256([]byte(dump))
		sum := hex.EncodeToString(s[:])
		fmt.Fprintf(&sb, "%s %s\n", c.name, sum)
		if !*updateStepGolden && want[c.name] != sum {
			t.Errorf("%s: dump sha256 %s, golden %s\n%s", c.name, sum, want[c.name], dump)
		}
	}
	if !*updateStepGolden && len(want) != len(cases) {
		t.Errorf("golden has %d entries, the grid %d", len(want), len(cases))
	}
	if *updateStepGolden {
		if err := os.MkdirAll(filepath.Dir(goldenStepPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStepPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
