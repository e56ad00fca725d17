package fleet

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/replay"
)

// gatewayReference rebuilds a fleet's gateway results the order-dependent
// way: every device run alone on a fresh machine, its send log through
// the channel, all arrivals of the fleet globally sorted and fed one by
// one to a single Gateway. Its telemetry closes open chains as lost, as
// a chain with no arrival can only be. It returns the gateway, the
// fleet's unique-send count and the reference telemetry.
func gatewayReference(t *testing.T, cfg Config) (*Gateway, int64, *Telemetry) {
	t.Helper()
	img, _, err := replay.BuildImage(cfg.DeviceSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(cfg.Devices, cfg.FreshnessMs)
	var arrivals []Arrival
	var unique int64
	for i := 0; i < cfg.Devices; i++ {
		out, _ := runDevice(img, cfg, i, nil, nil)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		unique += uniqueSends(out.Res.SendLog)
		arr, _ := transmit(i, DeviceSeed(cfg.Seed, i), cfg.Link, out.Res.SendLog, tel)
		arrivals = append(arrivals, arr...)
	}
	SortArrivals(arrivals)
	gw := NewGateway(cfg.FreshnessMs)
	for _, a := range arrivals {
		tel.onVerdict(a, gw.Accept(a))
	}
	for _, tr := range tel.Traces() {
		if tr.Verdict.Outcome == "" {
			tr.Verdict.Outcome = OutcomeLost
		}
	}
	return gw, unique, tel
}

// TestRunMatchesGatewayReference holds fleet.Run's per-device
// adjudication to the single order-dependent Gateway over the globally
// sorted arrivals, for the lossy golden fleets at several worker counts
// and wave sizes: digest and log, fleet and per-device counters, loss,
// the latency histogram down to the bits of its float sum, and every
// message's span chain.
func TestRunMatchesGatewayReference(t *testing.T) {
	for _, c := range goldenConfigs() {
		if c.name == "plain" {
			continue
		}
		gw, unique, refTel := gatewayReference(t, c.cfg)
		for _, workers := range []int{1, 4} {
			for _, wave := range []int{3, 0} {
				cfg := c.cfg
				cfg.Workers, cfg.Wave = workers, wave
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := func(what string) string {
					return fmt.Sprintf("%s: workers %d wave %d: %s", c.name, workers, wave, what)
				}
				if rep.Digest != gw.Digest() {
					t.Fatalf("%s: %s, reference %s", label("digest"), rep.Digest, gw.Digest())
				}
				if !reflect.DeepEqual(rep.GatewayLog(), gw.Log()) {
					t.Fatal(label("delivery log diverges"))
				}
				if rep.Gateway != gw.Stats() {
					t.Fatalf("%s: %+v, reference %+v", label("stats"), rep.Gateway, gw.Stats())
				}
				for dev := 0; dev < cfg.Devices; dev++ {
					if got, want := rep.devStats[dev], gw.DeviceStats(dev); got != want {
						t.Fatalf("%s: device %d %+v, reference %+v", label("per-device stats"), dev, got, want)
					}
				}
				if want := unique - int64(gw.Unique()); rep.Lost != want {
					t.Fatalf("%s: %d, reference %d", label("lost"), rep.Lost, want)
				}
				h, ref := rep.lat, gw.LatencyHistogram()
				if !reflect.DeepEqual(h.Counts, ref.Counts) || h.Count != ref.Count ||
					math.Float64bits(h.Sum) != math.Float64bits(ref.Sum) || h.Min != ref.Min || h.Max != ref.Max {
					t.Fatalf("%s: %+v, reference %+v", label("latency histogram"), h, ref)
				}
				if rep.LatencyP50 != gw.LatencyQuantile(0.5) || rep.LatencyP99 != gw.LatencyQuantile(0.99) {
					t.Fatal(label("latency quantiles diverge"))
				}
				if rep.Telemetry != nil && !reflect.DeepEqual(rep.Telemetry.Traces(), refTel.Traces()) {
					t.Fatal(label("span chains diverge"))
				}
			}
		}
	}
}

// TestAdjudicateMatchesGateway hand-builds arrival sets for a few
// devices and checks per-device adjudicate plus the fleet-level
// sortDeliveries against one Gateway fed the sorted set: the fleet and
// per-device counters, the delivery log in observation order, and every
// message's verdict span. Device 2 never has an arrival.
func TestAdjudicateMatchesGateway(t *testing.T) {
	a := func(dev int, seq int64, sent, arrive float64, attempt int, echo bool) Arrival {
		return Arrival{Dev: dev, Seq: seq, Value: int32(100*seq) + int32(attempt), SentMs: sent,
			ArriveMs: arrive, Attempt: attempt, Echo: echo}
	}
	const devices = 3
	for _, tc := range []struct {
		name    string
		freshMs float64
		arr     []Arrival
	}{
		{"no arrivals", 10, nil},
		{"tie on arrival time breaks on device", 10, []Arrival{
			a(0, 0, 0, 3, 0, false), a(0, 1, 1, 5, 0, false), a(1, 0, 2, 5, 0, false),
		}},
		{"tie on arrival time breaks on seq", 10, []Arrival{
			a(0, 2, 0, 5, 0, false), a(0, 0, 1, 5, 0, false), a(0, 1, 2, 5, 0, false),
		}},
		{"tie on arrival time breaks on attempt", 10, []Arrival{
			a(0, 0, 0, 5, 1, false), a(0, 0, 0, 5, 0, false), a(0, 1, 1, 7, 2, false), a(0, 1, 2, 7, 1, false),
		}},
		{"tie on attempt breaks on echo", 10, []Arrival{
			a(0, 0, 0, 5, 0, true), a(0, 0, 1, 5, 0, false), a(1, 0, 1, 6, 0, true), a(1, 0, 2, 6, 0, false),
		}},
		{"lost seq leaves a hole in the index", 10, []Arrival{
			a(0, 0, 0, 3, 0, false), a(0, 3, 3, 8, 0, false), a(0, 3, 3, 9, 0, true), a(0, 5, 4, 6, 1, false),
		}},
		{"expired minimal frame with a fresh later duplicate stays expired", 10, []Arrival{
			a(0, 0, 20, 25, 2, false), a(0, 0, 0, 15, 0, false), a(1, 0, 5, 9, 0, false),
		}},
		{"freshness off", 0, []Arrival{
			a(0, 0, 0, 500, 0, false), a(0, 0, 0, 900, 1, false), a(1, 0, 0, 1e6, 0, true),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := NewTelemetry(devices, tc.freshMs)
			ref := NewTelemetry(devices, tc.freshMs)
			for _, x := range tc.arr {
				tel.trace(x.Dev, x.Seq)
				ref.trace(x.Dev, x.Seq)
			}
			sorted := append([]Arrival(nil), tc.arr...)
			SortArrivals(sorted)
			gw := NewGateway(tc.freshMs)
			for _, x := range sorted {
				ref.onVerdict(x, gw.Accept(x))
			}

			var total GatewayStats
			var log []Delivery
			for dev := 0; dev < devices; dev++ {
				var arr []Arrival
				for _, x := range tc.arr {
					if x.Dev == dev {
						arr = append(arr, x)
					}
				}
				st, devLog := adjudicate(arr, tc.freshMs, tel)
				if st != gw.DeviceStats(dev) {
					t.Fatalf("device %d stats %+v, gateway %+v", dev, st, gw.DeviceStats(dev))
				}
				total.add(st)
				log = append(log, devLog...)
			}
			slices.Reverse(log) // sortDeliveries must not lean on its input order
			sortDeliveries(log)
			if total != gw.Stats() {
				t.Fatalf("stats %+v, gateway %+v", total, gw.Stats())
			}
			if total.Delivered+total.Expired != int64(gw.Unique()) {
				t.Fatalf("unique %d, gateway %d", total.Delivered+total.Expired, gw.Unique())
			}
			if len(log) != 0 || len(gw.Log()) != 0 {
				if !reflect.DeepEqual(log, gw.Log()) {
					t.Fatalf("deliveries %+v, gateway %+v", log, gw.Log())
				}
			}
			if !reflect.DeepEqual(tel.Traces(), ref.Traces()) {
				t.Fatal("verdict spans diverge from the gateway's")
			}
		})
	}
}

// TestExpired pins the freshness rule at its edges: a packet exactly at
// the deadline is fresh, and a zero deadline expires nothing.
func TestExpired(t *testing.T) {
	for _, c := range []struct {
		sent, arrive, fresh float64
		want                bool
	}{
		{0, 10, 10, false},
		{0, 10.000001, 10, true},
		{100, 95, 1, false},
		{0, 1e9, 0, false},
	} {
		if got := Expired(c.sent, c.arrive, c.fresh); got != c.want {
			t.Errorf("Expired(%g, %g, %g) = %v, want %v", c.sent, c.arrive, c.fresh, got, c.want)
		}
	}
}
