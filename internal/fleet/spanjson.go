package fleet

import (
	"encoding/json"
	"math"
	"strconv"
)

// spanEnc appends exactly the bytes json.Marshal produces for a
// MessageTrace — field order, omitempty, null for nil slices,
// encoding/json's float format — without reflection. bad records a NaN
// or infinite float, which json.Marshal refuses.
// TestWriteJSONMatchesEncodingJSON pins the equality.
type spanEnc struct {
	b   []byte
	bad bool
}

// int appends key (the JSON text before the value) and v.
func (e *spanEnc) int(key string, v int64) {
	e.b = strconv.AppendInt(append(e.b, key...), v, 10)
}

// float appends key and v as encoding/json does: 'f' unless |v| < 1e-6
// or |v| >= 1e21, and a two-digit negative exponent with a leading zero
// shortened (e-09 → e-9).
func (e *spanEnc) float(key string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.bad = true
		return
	}
	e.b = append(e.b, key...)
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, v, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str appends key and s quoted. Plain printable ASCII with nothing to
// escape (every outcome constant) is copied; anything else goes through
// json.Marshal for its escaping and HTML-safety rules.
func (e *spanEnc) str(key, s string) {
	e.b = append(e.b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// flag appends key when v is set (an omitempty bool).
func (e *spanEnc) flag(key string, v bool) {
	if v {
		e.b = append(e.b, key...)
	}
}

// trace appends tr's JSON object.
func (e *spanEnc) trace(tr *MessageTrace) {
	e.int(`{"dev":`, int64(tr.Dev))
	e.int(`,"seq":`, tr.Seq)
	e.int(`,"value":`, int64(tr.Value))
	e.b = append(e.b, `,"emits":`...)
	if tr.Emits == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range tr.Emits {
			em := &tr.Emits[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(`{"true_ms":`, em.TrueMs)
			e.int(`,"device_ms":`, em.DeviceMs)
			e.float(`,"emit_true_ms":`, em.EmitTrueMs)
			e.int(`,"sensor_ms":`, em.SensorMs)
			e.float(`,"commit_latency_ms":`, em.CommitLatencyMs)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"attempts":`...)
	if tr.Attempts == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range tr.Attempts {
			a := &tr.Attempts[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.int(`{"emit":`, int64(a.Emit))
			e.int(`,"attempt":`, int64(a.Attempt))
			e.float(`,"tx_ms":`, a.TxMs)
			e.flag(`,"lost":true`, a.Lost)
			if a.ArriveMs != 0 {
				e.float(`,"arrive_ms":`, a.ArriveMs)
			}
			e.flag(`,"echo":true`, a.Echo)
			e.flag(`,"ack_lost":true`, a.AckLost)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	v := &tr.Verdict
	e.str(`,"verdict":{"outcome":`, v.Outcome)
	if v.ArriveMs != 0 {
		e.float(`,"arrive_ms":`, v.ArriveMs)
	}
	if v.LatencyMs != 0 {
		e.float(`,"latency_ms":`, v.LatencyMs)
	}
	if v.FreshnessLeftMs != 0 {
		e.float(`,"freshness_left_ms":`, v.FreshnessLeftMs)
	}
	if v.Duplicates != 0 {
		e.int(`,"duplicates":`, int64(v.Duplicates))
	}
	e.b = append(e.b, "}}"...)
}
