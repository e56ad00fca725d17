package mc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/replay"
)

var updateSweepGolden = flag.Bool("update-sweep", false, "rewrite testdata/golden_sweep.txt")

const goldenSweepPath = "testdata/golden_sweep.txt"

// verifySpec is the benchmark's checked run: TICS with a 2 ms checkpoint
// timer, virtualized sends and a 200 ms wall budget (ghm never halts on
// its own), sensor seed 1.
func verifySpec(app string) replay.Spec {
	return replay.Spec{App: app, Runtime: "tics", TimerMs: 2, Virtualize: true, WallMs: 200, Seed: 1}
}

// goldenSweep is one sweep whose report testdata/golden_sweep.txt pins.
// heavy marks the sweeps skipped under the race detector.
type goldenSweep struct {
	name  string
	cfg   Config
	heavy bool
}

// goldenSweeps are the four benchmark programs at depth 1, swap at depth
// 2 and every seeded cross-check scenario (mementos and plain included).
func goldenSweeps(t *testing.T) []goldenSweep {
	var out []goldenSweep
	for _, app := range []string{"ar", "bc", "cf", "ghm"} {
		out = append(out, goldenSweep{name: "verify/" + app, cfg: Config{Spec: verifySpec(app), Depth: 1}, heavy: true})
	}
	swap, ok := apps.ByName("swap")
	if !ok {
		t.Fatal("swap app missing")
	}
	out = append(out, goldenSweep{name: "swap/depth2", cfg: Config{
		Spec:         replay.Spec{Source: swap.Source, Runtime: "tics", TimerMs: 2, Virtualize: true},
		Depth:        2,
		MaxSchedules: 300,
	}})
	for _, sc := range Scenarios() {
		cfg := sc.Config
		cfg.Spec.Source = readSeeded(t, sc.File)
		heavy := sc.File != "war.c" && sc.File != "recursion.c" && sc.File != "stale_send.c"
		out = append(out, goldenSweep{name: "scenario/" + sc.File, cfg: cfg, heavy: heavy})
	}
	return out
}

// TestSweepGolden pins the SHA-256 of every golden sweep's JSON report,
// so a change to how schedules are executed (not only to what they
// verdict) must reproduce every report byte for byte. Regenerate with
// go test ./internal/mc -run TestSweepGolden -update-sweep.
func TestSweepGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateSweepGolden {
		b, err := os.ReadFile(goldenSweepPath)
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
	var sb strings.Builder
	for _, g := range goldenSweeps(t) {
		if g.heavy && raceDetector && !*updateSweepGolden {
			continue
		}
		g.cfg.Workers = 2
		rep, err := Sweep(g.cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(b)
		sum := hex.EncodeToString(s[:])
		fmt.Fprintf(&sb, "%s %s\n", g.name, sum)
		if !*updateSweepGolden && want[g.name] != sum {
			t.Errorf("%s: report sha256 %s, golden %s (schedules %d, cycles %d)", g.name, sum, want[g.name], rep.Schedules, rep.CyclesExplored)
		}
	}
	if *updateSweepGolden {
		if err := os.MkdirAll(filepath.Dir(goldenSweepPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSweepPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
