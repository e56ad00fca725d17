package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/obs"
)

// Gateway is the fleet's sink: it deduplicates arrivals by (device,
// sequence) and accounts freshness against an @expires_after-style
// deadline. Dedup by the device's committed send sequence absorbs every
// duplication mode at once — device-side replays after a rollback (the
// raw radio re-sending with the same Seq), link-layer retransmits after
// a lost ACK, and channel echoes — which is what makes the end-to-end
// pipeline exactly-once even when no single hop is.
type Gateway struct {
	// FreshnessMs is the end-to-end deadline: a packet whose first
	// arrival lands more than FreshnessMs after its send is expired —
	// delivered data that is too stale to act on, the paper's central
	// time-consistency hazard pushed out to the network. Zero disables.
	FreshnessMs float64

	seen   map[gwKey]struct{}
	log    []Delivery
	lat    *obs.Histogram
	stats  GatewayStats
	perDev map[int]*GatewayStats
}

// Verdict is what the gateway decided about one arrival.
type Verdict uint8

const (
	VerdictDelivered Verdict = iota // first arrival, within the freshness deadline
	VerdictDuplicate                // repeat (device, seq); dropped
	VerdictExpired                  // first arrival, but past the freshness deadline
)

var verdictNames = [...]string{"delivered", "duplicate", "expired"}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "?"
}

// LatencyBounds are the fixed bucket bounds (ms) of the gateway's
// end-to-end latency histogram. Shared with the fleet metrics rollup so
// per-run and fleet-level latency estimates come from the same
// obs.Histogram.Quantile math and cannot drift.
var LatencyBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

type gwKey struct {
	dev int
	seq int64
}

// Delivery is one accepted (fresh, first-arrival) packet.
type Delivery struct {
	Dev      int     `json:"dev"`
	Seq      int64   `json:"seq"`
	Value    int32   `json:"value"`
	SentMs   float64 `json:"sent_ms"`
	ArriveMs float64 `json:"arrive_ms"`
}

// GatewayStats counts what the gateway did with the arrival stream.
type GatewayStats struct {
	Arrivals   int64 `json:"arrivals"`   // frames observed
	Delivered  int64 `json:"delivered"`  // unique fresh packets accepted
	Duplicates int64 `json:"duplicates"` // repeat (device, seq) arrivals dropped
	Expired    int64 `json:"expired"`    // unique packets past the freshness deadline
}

func (s *GatewayStats) add(o GatewayStats) {
	s.Arrivals += o.Arrivals
	s.Delivered += o.Delivered
	s.Duplicates += o.Duplicates
	s.Expired += o.Expired
}

// NewGateway builds an empty gateway with the given freshness deadline
// (0 = no deadline).
func NewGateway(freshnessMs float64) *Gateway {
	return &Gateway{
		FreshnessMs: freshnessMs,
		seen:        make(map[gwKey]struct{}),
		lat:         obs.NewHistogram(LatencyBounds),
		perDev:      make(map[int]*GatewayStats),
	}
}

// Accept processes one arrival and returns the verdict — the last hop of
// the message's span chain. Call in gateway observation order (see
// SortArrivals) for deterministic logs.
func (g *Gateway) Accept(a Arrival) Verdict {
	g.stats.Arrivals++
	dst := g.perDev[a.Dev]
	if dst == nil {
		dst = &GatewayStats{}
		g.perDev[a.Dev] = dst
	}
	dst.Arrivals++
	k := gwKey{a.Dev, a.Seq}
	if _, dup := g.seen[k]; dup {
		g.stats.Duplicates++
		dst.Duplicates++
		return VerdictDuplicate
	}
	g.seen[k] = struct{}{}
	if Expired(a.SentMs, a.ArriveMs, g.FreshnessMs) {
		g.stats.Expired++
		dst.Expired++
		return VerdictExpired
	}
	g.stats.Delivered++
	dst.Delivered++
	g.log = append(g.log, Delivery{Dev: a.Dev, Seq: a.Seq, Value: a.Value, SentMs: a.SentMs, ArriveMs: a.ArriveMs})
	g.lat.Observe(a.ArriveMs - a.SentMs)
	return VerdictDelivered
}

// Expired is the gateway's one freshness rule: a packet sent at sentMs
// whose first arrival lands at arriveMs is expired when a deadline
// freshMs is set (> 0) and the packet took longer than it. Gateway,
// the per-device adjudicator and internal/gate all judge through it.
func Expired(sentMs, arriveMs, freshMs float64) bool {
	return freshMs > 0 && arriveMs-sentMs > freshMs
}

// adjudicate applies the gateway's verdict rule to one device's
// arrivals, in any order: per seq it keeps the ArrivalBefore-minimal
// frame — the one Gateway.Accept sees first in SortArrivals order —
// judges freshness on it, and counts every other frame of that seq as a
// duplicate. Committed seqs are contiguous from 0, so the winners live
// in a dense slice indexed by seq. It returns the device's counters and
// its deliveries in seq order, and records every frame's verdict on tel
// (nil = untraced). Dedup is keyed by (device, seq), so adjudicating
// each device alone gives the verdicts of one fleet-wide gateway.
func adjudicate(arr []Arrival, freshMs float64, tel *Telemetry) (GatewayStats, []Delivery) {
	st := GatewayStats{Arrivals: int64(len(arr))}
	if len(arr) == 0 {
		return st, nil
	}
	var seqs int64
	for i := range arr {
		if arr[i].Seq >= seqs {
			seqs = arr[i].Seq + 1
		}
	}
	// win[seq] is 1 + the index of the seq's winning frame, 0 when none
	// arrived. On a full ArrivalBefore tie the earlier frame stays.
	win := make([]int32, seqs)
	for k := range arr {
		w := &win[arr[k].Seq]
		if *w == 0 || ArrivalBefore(arr[k], arr[*w-1]) {
			*w = int32(k + 1)
		}
	}
	log := make([]Delivery, 0, seqs)
	for _, w := range win {
		if w == 0 {
			continue
		}
		a := &arr[w-1]
		if Expired(a.SentMs, a.ArriveMs, freshMs) {
			st.Expired++
			tel.onVerdict(*a, VerdictExpired)
			continue
		}
		st.Delivered++
		log = append(log, Delivery{Dev: a.Dev, Seq: a.Seq, Value: a.Value, SentMs: a.SentMs, ArriveMs: a.ArriveMs})
		tel.onVerdict(*a, VerdictDelivered)
	}
	st.Duplicates = st.Arrivals - st.Delivered - st.Expired
	if tel != nil {
		for k := range arr {
			if win[arr[k].Seq] != int32(k+1) {
				tel.onVerdict(arr[k], VerdictDuplicate)
			}
		}
	}
	return st, log
}

// Stats returns the gateway counters.
func (g *Gateway) Stats() GatewayStats { return g.stats }

// DeviceStats returns the gateway counters attributed to one device —
// the per-device view the anomaly pass (freshness-loss hotspots) reads.
func (g *Gateway) DeviceStats(dev int) GatewayStats {
	if st := g.perDev[dev]; st != nil {
		return *st
	}
	return GatewayStats{}
}

// Log returns the accepted deliveries in observation order.
func (g *Gateway) Log() []Delivery { return g.log }

// Unique returns how many distinct (device, sequence) packets arrived,
// fresh or expired.
func (g *Gateway) Unique() int { return len(g.seen) }

// DeviceLog returns the deliveries attributed to one device, in
// observation order — the view `ticsrun -seq` output diffs against.
func (g *Gateway) DeviceLog(dev int) []Delivery {
	var out []Delivery
	for _, d := range g.log {
		if d.Dev == dev {
			out = append(out, d)
		}
	}
	return out
}

// Digest is a SHA-256 over the delivery log's canonical rendering — the
// fleet's one-line determinism witness: identical digests mean identical
// deliveries in identical order.
func (g *Gateway) Digest() string { return DigestOf(g.log) }

// DigestOf renders a delivery log into the canonical SHA-256 digest.
// Shared with internal/gate: the standalone gateway service hashes its
// durable delivery state through this exact function, which is what
// makes an HTTP-attached fleet's digest byte-comparable to an
// in-process run of the same manifest.
//
// Each delivery renders as the line fmt's "%d %d %d %.6f %.6f\n" would
// print, built with strconv into one reused buffer.
func DigestOf(log []Delivery) string {
	h := sha256.New()
	var line []byte
	for _, d := range log {
		line = strconv.AppendInt(line[:0], int64(d.Dev), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, d.Seq, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(d.Value), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, d.SentMs, 'f', 6, 64)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, d.ArriveMs, 'f', 6, 64)
		line = append(line, '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LatencyQuantile returns the q-quantile (0..1) of end-to-end delivery
// latency in ms (0 when none). It delegates to obs.Histogram.Quantile
// over LatencyBounds, the same estimator every other latency surface in
// the repo uses — so a fleet report, a merged metrics dump, and a
// Prometheus histogram_quantile over the exported buckets all agree.
func (g *Gateway) LatencyQuantile(q float64) float64 { return g.lat.Quantile(q) }

// LatencyHistogram exposes the underlying latency histogram so the fleet
// rollup can merge it into the fleet-wide registry (bounds always match:
// both sides use LatencyBounds).
func (g *Gateway) LatencyHistogram() *obs.Histogram { return g.lat }
