package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateFleetGolden = flag.Bool("update-fleet", false, "rewrite testdata/golden_fleet.txt")

// goldenLossy is a raw-radio fleet (Virtualize off) on a lossy ARQ link
// with channel echoes and a freshness deadline tight enough to expire
// some packets: every dedup and verdict path of the gateway fires.
func goldenLossy() Config {
	return Config{
		Devices: 12,
		Workers: 2,
		Source:  sendySrc,
		Runtime: "tics",
		Power:   "fail:7300",
		Seed:    23,
		TimerMs: 5,
		Link: LinkParams{
			Loss: 0.25, Dup: 0.1, DelayMinMs: 2, DelayMaxMs: 30,
			Retransmits: 2, BackoffMs: 5,
		},
		FreshnessMs: 25,
	}
}

// goldenConfigs are the fleets whose outputs testdata/golden_fleet.txt
// pins absolutely. Every other fleet oracle is relative (workers 1 vs 4,
// waves, pooling, in-process vs remote); this one catches a change that
// moves all sides of such a comparison at once.
func goldenConfigs() []struct {
	name string
	cfg  Config
} {
	ge := goldenLossy()
	ge.Source, ge.Power, ge.App, ge.WallMs, ge.TimerMs = "", "harvest:40000,800", "ghm", 300, 0
	// Seed and deadline chosen so the freshness-hotspot detector fires.
	ge.Virtualize, ge.Seed, ge.FreshnessMs = true, 27, 25
	ge.Link.GE, ge.Link.GELossGood, ge.Link.GELossBad = true, 0.01, 0.6
	ge.Link.GEGoodToBad, ge.Link.GEBadToGood = 0.08, 0.25
	traced := goldenLossy()
	traced.Trace, traced.Collect = true, true
	return []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{
			Devices: 16, Workers: 2, App: "ghm", Runtime: "tics", Power: "harvest:40000,800",
			Seed: 101, WallMs: 200, Virtualize: true,
			Link:        LinkParams{Loss: 0.05, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20},
			FreshnessMs: 500,
		}},
		{"lossy-raw", goldenLossy()},
		{"gilbert-elliott", ge},
		{"lossy-traced", traced},
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// renderGolden writes every pinned output of one fleet run, one field per
// line. Floats print with 'g' -1 so a one-ulp change shows.
func renderGolden(sb *strings.Builder, name string, rep *Report) error {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	fmt.Fprintf(sb, "[%s]\n", name)
	fmt.Fprintf(sb, "digest %s\n", rep.Digest)
	fmt.Fprintf(sb, "sends %d unique %d lost %d cycles %d\n", rep.Sends, rep.UniqueSends, rep.Lost, rep.TotalCycles)
	fmt.Fprintf(sb, "gateway %+v\n", rep.Gateway)
	fmt.Fprintf(sb, "link %+v\n", rep.Link)
	fmt.Fprintf(sb, "latency p50 %s p99 %s\n", g(rep.LatencyP50), g(rep.LatencyP99))
	if rep.Telemetry != nil {
		var b strings.Builder
		if err := rep.Telemetry.WriteJSON(&b); err != nil {
			return err
		}
		fmt.Fprintf(sb, "spans sha256 %s\n", sha([]byte(b.String())))
	}
	if rep.Metrics != nil {
		var b strings.Builder
		rep.Metrics.Dump(&b)
		fmt.Fprintf(sb, "metrics sha256 %s\n", sha([]byte(b.String())))
		if h := rep.Metrics.Histogram("fleet_gateway_latency_ms"); h != nil {
			fmt.Fprintf(sb, "latency count %d sum bits %#x\n", h.Count, math.Float64bits(h.Sum))
		}
	}
	for _, a := range rep.Anomalies {
		fmt.Fprintf(sb, "anomaly dev %d %s value %s threshold %s: %s\n", a.Dev, a.Kind, g(a.Value), g(a.Threshold), a.Detail)
	}
	return nil
}

// TestFleetGolden compares four representative fleets against committed
// outputs: digest, gateway and link counters, loss, latency quantiles,
// span and metric dumps (by SHA-256), and the anomaly list. Regenerate
// with `go test ./internal/fleet -run TestFleetGolden -update-fleet`
// only for an intended behaviour change.
func TestFleetGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range goldenConfigs() {
		rep, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := renderGolden(&sb, c.name, rep); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden_fleet.txt")
	if *updateFleetGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/fleet -run TestFleetGolden -update-fleet): %v", err)
	}
	if got != string(want) {
		t.Errorf("fleet outputs drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
