package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Telemetry is the fleet's end-to-end message tracer. Every send gets a
// trace context keyed by (device, committed send sequence) and a span per
// hop: the VM emit (with commit latency and the payload's sensor
// timestamp), each channel transmission attempt (loss, duplication,
// delay, ARQ retransmit — observed from the channel's deterministic RNG
// draws, never perturbing them), and the gateway verdict (delivered /
// expired / lost, with end-to-end latency and the freshness budget left).
//
// Collection happens inside each device's job of the fleet's parallel
// pool: the job transmits and adjudicates that device's frames and
// writes only that device's slot, and every span is a function of the
// device's own seeded channel draws. So traces inherit the fleet's
// worker-count independence: the rendered trace of any message is
// byte-identical whether the fleet ran on 1 worker or 16.
//
// Committed seqs are contiguous from 0, so each device's traces are a
// slice indexed by seq; a slot holds a message iff it has at least one
// emit. Every enumeration reads the slices in seq order, with no map and
// no sort.
type Telemetry struct {
	freshnessMs float64
	byDev       [][]MessageTrace
}

// EmitSpan is the device-side hop: one radio transmission of the packet.
// Raw radios can emit the same (device, seq) more than once — a rollback
// replays the send — so a trace holds a list of emits, each of which
// fans out into link-layer attempts.
type EmitSpan struct {
	TrueMs          float64 `json:"true_ms"`           // transmission time (commit time when virtualized)
	DeviceMs        int64   `json:"device_ms"`         // device clock at transmission
	EmitTrueMs      float64 `json:"emit_true_ms"`      // Send-instruction execution (payload creation)
	SensorMs        int64   `json:"sensor_ms"`         // device clock when the payload was produced
	CommitLatencyMs float64 `json:"commit_latency_ms"` // virtualized hold time (0 for raw radio)
}

// AttemptSpan is one link-layer transmission attempt of one emit.
type AttemptSpan struct {
	Emit     int     `json:"emit"`                // index into MessageTrace.Emits
	Attempt  int     `json:"attempt"`             // 0 = first transmission, >0 = ARQ retransmit
	TxMs     float64 `json:"tx_ms"`               // when the frame left the device
	Lost     bool    `json:"lost,omitempty"`      // the channel dropped the frame
	ArriveMs float64 `json:"arrive_ms,omitempty"` // gateway arrival (delivered frames)
	Echo     bool    `json:"echo,omitempty"`      // channel-duplicated copy
	AckLost  bool    `json:"ack_lost,omitempty"`  // delivered, but the ACK vanished → retransmit follows
}

// VerdictSpan is the gateway-side conclusion of the message's journey.
type VerdictSpan struct {
	Outcome string `json:"outcome"` // "delivered", "expired", or "lost"
	// ArriveMs/LatencyMs describe the first arrival (absent for lost).
	ArriveMs  float64 `json:"arrive_ms,omitempty"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// FreshnessLeftMs is the budget remaining when the packet landed
	// (negative for expired packets); only set when the gateway has a
	// freshness deadline.
	FreshnessLeftMs float64 `json:"freshness_left_ms,omitempty"`
	// Duplicates counts the extra arrivals of this (device, seq) the
	// gateway dropped — replays, retransmits, and echoes combined.
	Duplicates int `json:"duplicates,omitempty"`
}

// Outcome values of VerdictSpan.
const (
	OutcomeDelivered = "delivered"
	OutcomeExpired   = "expired"
	OutcomeLost      = "lost"
	// OutcomeRemote marks a message whose frames reached a remote
	// gateway (Config.Remote): dedup and freshness were adjudicated in
	// the service, so the fleet-side trace ends at the channel. Messages
	// whose every attempt died in the channel are still OutcomeLost —
	// that much the fleet knows without the gateway.
	OutcomeRemote = "remote"
)

// MessageTrace is the full span chain of one logical message.
type MessageTrace struct {
	Dev      int           `json:"dev"`
	Seq      int64         `json:"seq"`
	Value    int32         `json:"value"`
	Emits    []EmitSpan    `json:"emits"`
	Attempts []AttemptSpan `json:"attempts"`
	Verdict  VerdictSpan   `json:"verdict"`
}

// NewTelemetry builds a tracer for an n-device fleet with the given
// gateway freshness deadline (0 = none).
func NewTelemetry(n int, freshnessMs float64) *Telemetry {
	return &Telemetry{freshnessMs: freshnessMs, byDev: make([][]MessageTrace, n)}
}

// reserve sizes device dev's trace slice for n seqs up front. Nil-safe.
func (t *Telemetry) reserve(dev, n int) {
	if t != nil && t.byDev[dev] == nil {
		t.byDev[dev] = make([]MessageTrace, 0, n)
	}
}

// trace returns the slot for (dev, seq), growing the device's slice to
// reach it. The pointer is valid until the next growth.
func (t *Telemetry) trace(dev int, seq int64) *MessageTrace {
	s := t.byDev[dev]
	if seq >= int64(len(s)) {
		s = append(s, make([]MessageTrace, seq+1-int64(len(s)))...)
		t.byDev[dev] = s
	}
	return &s[seq]
}

// onEmit opens (or extends, for raw-radio replays of the same committed
// seq) the trace for one SendRec and returns the emit index attempts
// attach to. Nil-safe: an untraced fleet pays one nil check per packet.
func (t *Telemetry) onEmit(dev int, rec vm.SendRec) int {
	if t == nil {
		return 0
	}
	tr := t.trace(dev, rec.Seq)
	tr.Dev, tr.Seq, tr.Value = dev, rec.Seq, rec.Value
	tr.Emits = append(tr.Emits, EmitSpan{
		TrueMs:          rec.TrueMs,
		DeviceMs:        rec.EstMs,
		EmitTrueMs:      rec.EmitTrueMs,
		SensorMs:        rec.EmitEstMs,
		CommitLatencyMs: rec.CommitLatencyMs(),
	})
	return len(tr.Emits) - 1
}

// onAttempt appends one link-layer attempt span and returns its index.
func (t *Telemetry) onAttempt(dev int, seq int64, a AttemptSpan) int {
	if t == nil {
		return 0
	}
	tr := t.trace(dev, seq)
	tr.Attempts = append(tr.Attempts, a)
	return len(tr.Attempts) - 1
}

// markAckLost flags a delivered attempt whose ACK the channel dropped.
func (t *Telemetry) markAckLost(dev int, seq int64, idx int) {
	if t == nil {
		return
	}
	t.trace(dev, seq).Attempts[idx].AckLost = true
}

// onVerdict records what the gateway did with one arrival. The winning
// (delivered or expired) arrival fixes the message outcome; duplicates
// only bump the drop counter.
func (t *Telemetry) onVerdict(a Arrival, v Verdict) {
	if t == nil {
		return
	}
	tr := t.trace(a.Dev, a.Seq)
	if v == VerdictDuplicate {
		tr.Verdict.Duplicates++
		return
	}
	lat := a.ArriveMs - a.SentMs
	tr.Verdict.ArriveMs = a.ArriveMs
	tr.Verdict.LatencyMs = lat
	if t.freshnessMs > 0 {
		tr.Verdict.FreshnessLeftMs = t.freshnessMs - lat
	}
	if v == VerdictExpired {
		tr.Verdict.Outcome = OutcomeExpired
	} else {
		tr.Verdict.Outcome = OutcomeDelivered
	}
}

// closeChains ends device dev's chains that got no gateway verdict. A
// chain none of whose frames survived the channel is lost. One whose
// frames reached the wire but got no verdict went to a remote gateway
// (Config.Remote), which adjudicates in the service; in-process, every
// frame that arrived has a verdict, so only lost chains remain open.
func (t *Telemetry) closeChains(dev int) {
	if t == nil {
		return
	}
	for i := range t.byDev[dev] {
		tr := &t.byDev[dev][i]
		if len(tr.Emits) == 0 || tr.Verdict.Outcome != "" {
			continue
		}
		tr.Verdict.Outcome = OutcomeLost
		for _, at := range tr.Attempts {
			if !at.Lost {
				tr.Verdict.Outcome = OutcomeRemote
				break
			}
		}
	}
}

// Trace returns the span chain for (dev, seq), or nil if that message
// was never sent (or the fleet ran without tracing).
func (t *Telemetry) Trace(dev int, seq int64) *MessageTrace {
	if t == nil || dev < 0 || dev >= len(t.byDev) || seq < 0 || seq >= int64(len(t.byDev[dev])) {
		return nil
	}
	if tr := &t.byDev[dev][seq]; len(tr.Emits) > 0 {
		return tr
	}
	return nil
}

// Devices returns the fleet size the tracer was built for.
func (t *Telemetry) Devices() int {
	if t == nil {
		return 0
	}
	return len(t.byDev)
}

// DeviceTraces returns one device's traces in ascending seq order.
func (t *Telemetry) DeviceTraces(dev int) []*MessageTrace {
	if t == nil || dev < 0 || dev >= len(t.byDev) {
		return nil
	}
	var out []*MessageTrace
	for i := range t.byDev[dev] {
		if tr := &t.byDev[dev][i]; len(tr.Emits) > 0 {
			out = append(out, tr)
		}
	}
	return out
}

// Traces returns every trace, ordered by (device, seq) — the canonical
// deterministic enumeration the exporters and tests rely on.
func (t *Telemetry) Traces() []*MessageTrace {
	if t == nil {
		return nil
	}
	var out []*MessageTrace
	for dev := range t.byDev {
		out = append(out, t.DeviceTraces(dev)...)
	}
	return out
}

// WriteJSON renders every trace as one JSON object per line in (device,
// seq) order — greppable, diffable, and byte-stable across worker counts.
// Each line is exactly json.Marshal of the MessageTrace, appended by hand
// into one buffer that is flushed in chunks.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	const chunk = 64 << 10
	e := spanEnc{b: make([]byte, 0, chunk+4<<10)}
	for dev := range t.byDev {
		for i := range t.byDev[dev] {
			tr := &t.byDev[dev][i]
			if len(tr.Emits) == 0 {
				continue
			}
			start := len(e.b)
			if e.trace(tr); e.bad {
				// A NaN or infinity: write the lines before it, then
				// return json.Marshal's error for it.
				if _, err := w.Write(e.b[:start]); err != nil {
					return err
				}
				_, err := json.Marshal(tr)
				return err
			}
			e.b = append(e.b, '\n')
			if len(e.b) >= chunk {
				if _, err := w.Write(e.b); err != nil {
					return err
				}
				e.b = e.b[:0]
			}
		}
	}
	if len(e.b) > 0 {
		_, err := w.Write(e.b)
		return err
	}
	return nil
}

// ChromeTraceEvents renders the message spans as Perfetto tracks: one
// process per device, whose track carries an X-slice per transmission
// attempt (tx → arrival), instants for lost frames and verdicts, and the
// emit→commit hold of virtualized sends as a leading slice. Opens
// directly in ui.perfetto.dev next to a device's own machine trace.
func (t *Telemetry) ChromeTraceEvents() []obs.TraceEvent {
	var evs []obs.TraceEvent
	if t == nil {
		return evs
	}
	for dev := range t.byDev {
		traces := t.DeviceTraces(dev)
		if len(traces) == 0 {
			continue
		}
		pid := dev + 1 // pid 0 renders oddly in Perfetto
		evs = append(evs, obs.TraceEvent{Name: "process_name", Phase: "M", PID: pid, TID: 1,
			Cat: "__metadata", Args: map[string]any{"name": fmt.Sprintf("dev%d", dev)}})
		for _, tr := range traces {
			for ei, em := range tr.Emits {
				if em.CommitLatencyMs > 0 {
					evs = append(evs, obs.TraceEvent{
						Name: fmt.Sprintf("hold seq=%d", tr.Seq), Cat: "commit", Phase: "X",
						TsUs: em.EmitTrueMs * 1000, DurUs: em.CommitLatencyMs * 1000, PID: pid, TID: 1,
						Args: map[string]any{"seq": tr.Seq, "emit": ei, "sensor_ms": em.SensorMs}})
				} else {
					evs = append(evs, obs.TraceEvent{
						Name: fmt.Sprintf("emit seq=%d", tr.Seq), Cat: "emit", Phase: "i",
						TsUs: em.TrueMs * 1000, PID: pid, TID: 1, Scope: "t",
						Args: map[string]any{"seq": tr.Seq, "emit": ei, "sensor_ms": em.SensorMs}})
				}
			}
			for _, at := range tr.Attempts {
				name := fmt.Sprintf("seq=%d a%d", tr.Seq, at.Attempt)
				args := map[string]any{"seq": tr.Seq, "emit": at.Emit, "attempt": at.Attempt,
					"echo": at.Echo, "ack_lost": at.AckLost}
				if at.Lost {
					evs = append(evs, obs.TraceEvent{Name: name + " lost", Cat: "channel", Phase: "i",
						TsUs: at.TxMs * 1000, PID: pid, TID: 1, Scope: "t", Args: args})
					continue
				}
				evs = append(evs, obs.TraceEvent{Name: name, Cat: "channel", Phase: "X",
					TsUs: at.TxMs * 1000, DurUs: (at.ArriveMs - at.TxMs) * 1000, PID: pid, TID: 1, Args: args})
			}
			v := tr.Verdict
			vArgs := map[string]any{"seq": tr.Seq, "outcome": v.Outcome,
				"latency_ms": v.LatencyMs, "duplicates": v.Duplicates}
			if t.freshnessMs > 0 {
				vArgs["freshness_left_ms"] = v.FreshnessLeftMs
			}
			ts := v.ArriveMs
			if v.Outcome == OutcomeLost && len(tr.Attempts) > 0 {
				ts = tr.Attempts[len(tr.Attempts)-1].TxMs
			}
			evs = append(evs, obs.TraceEvent{Name: "verdict " + v.Outcome, Cat: "gateway", Phase: "i",
				TsUs: ts * 1000, PID: pid, TID: 1, Scope: "t", Args: vArgs})
		}
	}
	return evs
}

// WriteChromeTrace exports the message spans as Chrome/Perfetto JSON via
// the shared obs trace_event serializer.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	return obs.WriteTraceEvents(w, t.ChromeTraceEvents())
}
