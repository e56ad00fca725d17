package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vm"
)

func TestMedianAndMAD(t *testing.T) {
	cases := []struct {
		xs       []float64
		med, mad float64
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 0},
		{[]float64{1, 2, 3, 4}, 2.5, 1},
		{[]float64{1, 1, 1, 1, 100}, 1, 0},
		{[]float64{2, 4, 6, 8, 10}, 6, 2},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if got := mad(c.xs, median(c.xs)); got != c.mad {
			t.Errorf("mad(%v) = %v, want %v", c.xs, got, c.mad)
		}
	}
}

func TestMADOutliers(t *testing.T) {
	// MAD > 0: classical cut at median + k·MAD.
	cut, idx := madOutliers([]float64{2, 4, 6, 8, 10, 100}, 3.5)
	if want := 7.0 + 3.5*3; cut != want {
		t.Fatalf("cut = %v, want %v", cut, want)
	}
	if !reflect.DeepEqual(idx, []int{5}) {
		t.Fatalf("outliers = %v, want [5]", idx)
	}

	// MAD == 0 with a positive median: fall back to 2× the median, so a
	// uniform fleet with one runaway still flags it…
	cut, idx = madOutliers([]float64{5, 5, 5, 5, 11}, 3.5)
	if cut != 10 || !reflect.DeepEqual(idx, []int{4}) {
		t.Fatalf("uniform fleet: cut %v idx %v, want 10 [4]", cut, idx)
	}
	// …but mild jitter under 2× stays quiet.
	if _, idx = madOutliers([]float64{5, 5, 5, 5, 9}, 3.5); idx != nil {
		t.Fatalf("jitter flagged: %v", idx)
	}
	// MAD == 0 and median == 0: nothing to compare against, never flag.
	if _, idx = madOutliers([]float64{0, 0, 0, 42}, 3.5); idx != nil {
		t.Fatalf("zero-median fleet flagged: %v", idx)
	}
}

// syntheticReport builds a report whose outcomes are hand-authored, so
// each detector can be exercised in isolation.
func syntheticReport(results ...vm.Result) *Report {
	rep := &Report{Devices: len(results)}
	for i, r := range results {
		rep.Outcomes = append(rep.Outcomes, DeviceOutcome{ID: i, Res: r})
	}
	return rep
}

func normal(cycles int64, wall float64) vm.Result {
	return vm.Result{Completed: true, Cycles: cycles, OnMs: wall, TotalCheckpoints: 3}
}

func TestDetectStragglers(t *testing.T) {
	rs := make([]vm.Result, 9)
	for i := range rs {
		rs[i] = normal(1000+int64(i), 50+float64(i))
	}
	rs = append(rs, normal(50000, 51)) // cycle straggler only
	rep := syntheticReport(rs...)
	as := DetectAnomalies(rep, 0)
	if len(as) != 1 || as[0].Dev != 9 || as[0].Kind != AnomalyStragglerCycles {
		t.Fatalf("anomalies = %+v, want one straggler-cycles on dev 9", as)
	}
	if as[0].Value != 50000 || as[0].Threshold >= 50000 {
		t.Fatalf("straggler value/threshold wrong: %+v", as[0])
	}

	// A device can be flagged on both axes at once; the list stays
	// ordered by (device, kind).
	rs[9] = normal(50000, 5000)
	as = DetectAnomalies(syntheticReport(rs...), 0)
	if len(as) != 2 || as[0].Kind != AnomalyStragglerCycles || as[1].Kind != AnomalyStragglerWall {
		t.Fatalf("anomalies = %+v, want both straggler kinds on dev 9", as)
	}
}

func TestDetectLivelock(t *testing.T) {
	rs := make([]vm.Result, 6)
	for i := range rs {
		rs[i] = normal(1000+int64(i), 50)
	}
	// Burned cycles, zero commits, never completed: the livelock shape.
	rs[2] = vm.Result{Cycles: 900, OnMs: 50, Failures: 40}
	// Incomplete but progressing (has checkpoints): not livelock.
	rs[4] = vm.Result{Cycles: 950, OnMs: 50, TotalCheckpoints: 5}
	as := DetectAnomalies(syntheticReport(rs...), 0)
	var live []int
	for _, a := range as {
		if a.Kind == AnomalyLivelock {
			live = append(live, a.Dev)
		}
	}
	if !reflect.DeepEqual(live, []int{2}) {
		t.Fatalf("livelock devices = %v, want [2]", live)
	}
}

func TestDetectFreshnessHotspot(t *testing.T) {
	rs := make([]vm.Result, 8)
	for i := range rs {
		rs[i] = normal(1000, 50)
	}
	rep := syntheticReport(rs...)
	// Every device loses its first packet to staleness (10% baseline);
	// device 6 loses seven of ten. The detector must single out 6.
	gw := NewGateway(10)
	for dev := 0; dev < 8; dev++ {
		for seq := int64(0); seq < 10; seq++ {
			lat := 5.0
			if seq == 0 || (dev == 6 && seq < 7) {
				lat = 50 // past the 10 ms freshness deadline
			}
			gw.Accept(Arrival{Dev: dev, Seq: seq, SentMs: 100, ArriveMs: 100 + lat})
		}
	}
	rep.Gateway, rep.devStats = gw.Stats(), make([]GatewayStats, 8)
	for dev := range rep.devStats {
		rep.devStats[dev] = gw.DeviceStats(dev)
	}
	as := DetectAnomalies(rep, 0)
	var hot []int
	for _, a := range as {
		if a.Kind == AnomalyFreshness {
			hot = append(hot, a.Dev)
		}
	}
	if !reflect.DeepEqual(hot, []int{6}) {
		t.Fatalf("freshness hotspots = %v, want [6]", hot)
	}

	// Without a gateway (or with zero expiries) the detector stays out.
	rep.devStats = nil
	for _, a := range DetectAnomalies(rep, 0) {
		if a.Kind == AnomalyFreshness {
			t.Fatalf("freshness anomaly without gateway data: %+v", a)
		}
	}
}

func TestDetectAnomaliesDeterministic(t *testing.T) {
	rep, err := Run(lossyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	a := DetectAnomalies(rep, 0)
	b := DetectAnomalies(rep, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("anomaly pass is not deterministic over the same report")
	}
	if !reflect.DeepEqual(a, rep.Anomalies) {
		t.Fatal("Report.Anomalies diverges from a fresh DetectAnomalies pass")
	}
}

func TestWriteAnomaliesProm(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAnomaliesProm(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("empty anomaly list wrote %q, err %v", buf.String(), err)
	}
	as := []Anomaly{
		{Dev: 3, Kind: AnomalyLivelock, Value: 900},
		{Dev: 7, Kind: AnomalyStragglerWall, Value: 123.5},
	}
	if err := WriteAnomaliesProm(&buf, as); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE fleet_anomaly_device gauge",
		`fleet_anomaly_device{device="3",kind="livelock"} 900`,
		`fleet_anomaly_device{device="7",kind="straggler-wall"} 123.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	if got := anomalyCounts(as); got[AnomalyLivelock] != 1 || got[AnomalyStragglerWall] != 1 {
		t.Fatalf("anomalyCounts = %v", got)
	}
}
