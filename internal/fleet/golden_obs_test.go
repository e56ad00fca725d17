package fleet

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateObsGolden = flag.Bool("update-obs", false, "rewrite testdata/golden_obs.txt")

// sortedMapText renders a profile map as "key value" lines in key order.
func sortedMapText(m map[string]int64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, m[k])
	}
	return []byte(b.String())
}

// renderObsGolden writes the SHA-256 of every observability export of
// one fleet run: the merged profile, the merged Prometheus text, each
// device's own registry, the span JSONL and the Perfetto trace.
func renderObsGolden(sb *strings.Builder, name string, rep *Report) error {
	fmt.Fprintf(sb, "[%s]\n", name)
	p := rep.Profile
	fmt.Fprintf(sb, "profile by-category %s\n", sha(sortedMapText(p.ByCategory)))
	fmt.Fprintf(sb, "profile by-function %s\n", sha(sortedMapText(p.ByFunction)))
	fmt.Fprintf(sb, "profile folded %s\n", sha(sortedMapText(p.Folded)))
	var b strings.Builder
	if err := rep.Metrics.WritePrometheus(&b); err != nil {
		return err
	}
	fmt.Fprintf(sb, "prometheus %s\n", sha([]byte(b.String())))
	for dev := 0; dev < rep.Devices; dev++ {
		b.Reset()
		reg := rep.DeviceRegistry(dev)
		if reg == nil {
			return fmt.Errorf("device %d: no registry", dev)
		}
		if err := reg.WritePrometheusLabeled(&b, map[string]string{"shard": fmt.Sprintf("dev%d", dev)}); err != nil {
			return err
		}
		fmt.Fprintf(sb, "device %d prometheus %s\n", dev, sha([]byte(b.String())))
	}
	b.Reset()
	if err := rep.Telemetry.WriteJSON(&b); err != nil {
		return err
	}
	fmt.Fprintf(sb, "spans %s\n", sha([]byte(b.String())))
	b.Reset()
	if err := rep.Telemetry.WriteChromeTrace(&b); err != nil {
		return err
	}
	fmt.Fprintf(sb, "perfetto %s\n", sha([]byte(b.String())))
	return nil
}

// TestObsGolden pins the fleet's observability exports absolutely: the
// traced golden fleet with the profiler on, at 1 and 2 workers. The
// relative oracles (worker counts, waves, pooling) cannot catch a change
// that moves every side at once; this does. Regenerate with
// `go test ./internal/fleet -run TestObsGolden -update-obs` only for an
// intended behaviour change.
func TestObsGolden(t *testing.T) {
	var sb strings.Builder
	for _, workers := range []int{1, 2} {
		cfg := goldenLossy()
		cfg.Trace, cfg.Collect, cfg.Profile = true, true, true
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := renderObsGolden(&sb, fmt.Sprintf("lossy-traced-profile workers=%d", workers), rep); err != nil {
			t.Fatal(err)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden_obs.txt")
	if *updateObsGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/fleet -run TestObsGolden -update-obs): %v", err)
	}
	if got != string(want) {
		t.Errorf("observability exports drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestSlotFoldIsOrderFree pins the argument that lets each pool slot
// fold its devices' registries as it goes: the per-slot folds, merged in
// slot order, equal the device-order fold, for any worker count, wave
// size or pooling. It holds because every value a device recorder
// observes is an integer and the totals stay far below 2^53, so float
// Sums are exact in any addition order; the _sum check below keeps that
// premise honest.
func TestSlotFoldIsOrderFree(t *testing.T) {
	cfg := goldenLossy()
	cfg.Devices, cfg.Collect, cfg.Profile = 24, true, true
	var want, wantProf string
	var rep *Report
	for _, v := range []struct {
		workers, wave int
		disable       bool
	}{{1, 0, false}, {3, 5, false}, {4, 2, true}} {
		c := cfg
		c.Workers, c.Wave, c.DisablePool = v.workers, v.wave, v.disable
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.Metrics.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		prof := string(sortedMapText(r.Profile.Folded)) + string(sortedMapText(r.Profile.ByCategory))
		if rep == nil {
			rep, want, wantProf = r, b.String(), prof
		} else if b.String() != want || prof != wantProf {
			t.Fatalf("workers=%d wave=%d disablePool=%v: merged metrics or profile diverge", v.workers, v.wave, v.disable)
		}
	}

	devOrder := obs.NewRegistry()
	for dev := 0; dev < rep.Devices; dev++ {
		if err := devOrder.Merge(rep.DeviceRegistry(dev)); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := devOrder.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sums := 0
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if !strings.Contains(want, line+"\n") {
			t.Errorf("device-order fold line %q missing from the slot fold", line)
		}
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasSuffix(name, "_sum") {
			sums++
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f != math.Trunc(f) || f >= 1<<53 {
				t.Errorf("%s = %s: not an exact integer sum", name, val)
			}
		}
	}
	if sums == 0 {
		t.Fatal("no histogram sums checked")
	}
}
