package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyParams runs every workload in well under a second.
var tinyParams = params{
	FleetDevices:     64,
	TelemetryDevices: 64,
	IngestDevices:    64,
	BatchFrames:      16,
	VerifyWallMs:     20,
	SetupReps:        1,
	MinRounds:        1,
	CalibSteps:       1 << 16,
}

// inTempDir runs the test from a scratch directory, so gateway stores
// land there.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size: each must pass its correctness checks and print its full metric
// set, every end-to-end metric non-zero.
func TestWorkloadsTiny(t *testing.T) {
	inTempDir(t)
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			var log strings.Builder
			b := newBench(tinyParams, 3, 0, trace, &log)
			if err := run(b); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			res := b.result()
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), want)
			}
			if !trace {
				for k, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v", name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestChecksCatchCorruptDigest shows each workload's correctness check
// rejecting a deliberately corrupted digest or count.
func TestChecksCatchCorruptDigest(t *testing.T) {
	inTempDir(t)
	cfg := fleetConfig(64, 3, 2, false)
	r, err := runFleetRound(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summarizeReport(r.rep)
	got, arrivals, _, _, err := replicaRound(cfg, newTracer(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSame("replica", want, got); err != nil {
		t.Fatalf("uncorrupted replica rejected: %v", err)
	}
	bad := got
	bad.Digest = strings.Repeat("0", len(got.Digest))
	if checkSame("replica", want, bad) == nil {
		t.Error("fleet check accepted a corrupted digest")
	}
	bad = got
	bad.Cycles++
	if checkSame("replica", want, bad) == nil {
		t.Error("fleet check accepted a corrupted cycle count")
	}

	ref := referenceSummary(arrivals, cfg.FreshnessMs)
	out, err := ingestReplay(arrivals, cfg.FreshnessMs, 16, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(ref, out); err != nil {
		t.Fatalf("uncorrupted replay rejected: %v", err)
	}
	badOut := out
	badOut.summary.Digest = "corrupt"
	if checkReplay(ref, badOut) == nil {
		t.Error("ingest check accepted a corrupted Finalize digest")
	}
	badOut = out
	badOut.reopenDig = "corrupt"
	if checkReplay(ref, badOut) == nil {
		t.Error("ingest check accepted a corrupted digest after reopen")
	}
	if err := checkCapture(cfg, ref); err != nil {
		t.Fatalf("uncorrupted capture rejected: %v", err)
	}
	badRef := ref
	badRef.Digest = "corrupt"
	if checkCapture(cfg, badRef) == nil {
		t.Error("capture check accepted arrivals whose digest differs from fleet.Run's")
	}

	b := newBench(tinyParams, 3, 0, false, &strings.Builder{})
	counts, _, err := sweepApp(b, "bc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.result().Correct {
		t.Fatal("clean sweep reported incorrect")
	}
	counts.Cycles++
	if _, _, err := sweepApp(b, "bc", &counts); err != nil {
		t.Fatal(err)
	}
	if b.result().Correct {
		t.Error("verify check accepted a corrupted cycle count")
	}
}

// TestMetricListsMatchManifest pins BENCHMARK.json to the metrics the
// program prints.
func TestMetricListsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.kind, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestQuantileMatchesInclusiveRule pins the interpolation rule.
func TestQuantileMatchesInclusiveRule(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.25); got != 1.75 {
		t.Errorf("q25 = %v, want 1.75", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// TestStopwatchUnstolenWithinWall: unstolen time is positive and never
// more than the wall time it is taken from.
func TestStopwatchUnstolenWithinWall(t *testing.T) {
	w := startWatch()
	time.Sleep(20 * time.Millisecond)
	wall, unstolen := w.read()
	if !(unstolen > 0 && unstolen <= wall && wall >= 0.02) {
		t.Errorf("wall %v s, unstolen %v s", wall, unstolen)
	}
}
