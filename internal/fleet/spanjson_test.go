package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestWriteJSONMatchesEncodingJSON pins the hand-written span encoder to
// json.Marshal byte for byte: null versus empty slices, every omitempty
// field at zero and set, negative freshness, the float formats on both
// sides of encoding/json's 'f'/'e' switch, and extreme integers.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	traces := []MessageTrace{
		{},
		{Dev: 1, Seq: 2, Value: -3, Emits: []EmitSpan{}, Attempts: []AttemptSpan{}},
		{Dev: 3, Emits: []EmitSpan{{}}, Attempts: nil, Verdict: VerdictSpan{Outcome: OutcomeLost}},
		{
			Dev: 7, Seq: 1 << 40, Value: math.MaxInt32,
			Emits: []EmitSpan{
				{TrueMs: 12.5, DeviceMs: 12, EmitTrueMs: 11.25, SensorMs: 10, CommitLatencyMs: 1.25},
				{TrueMs: 1e-7, DeviceMs: math.MaxInt64, EmitTrueMs: 5e-324, SensorMs: math.MinInt64, CommitLatencyMs: 1e21},
			},
			Attempts: []AttemptSpan{
				{Emit: 0, Attempt: 0, TxMs: 12.5, Lost: true},
				{Emit: 0, Attempt: 1, TxMs: 17.5, ArriveMs: 30.125, AckLost: true},
				{Emit: 1, Attempt: 2, TxMs: 9.99e20, ArriveMs: 1e-6, Echo: true},
				{Emit: 1, Attempt: 3, TxMs: -0.0, ArriveMs: -1e-9},
			},
			Verdict: VerdictSpan{Outcome: OutcomeExpired, ArriveMs: 30.125, LatencyMs: 17.625,
				FreshnessLeftMs: -2.375, Duplicates: 3},
		},
		{Dev: 9, Seq: 4, Emits: []EmitSpan{{TrueMs: 0.1 + 0.2}}, Verdict: VerdictSpan{
			Outcome: OutcomeDelivered, ArriveMs: 1.0000000000000002, LatencyMs: 123456789.125,
			FreshnessLeftMs: 1e-300, Duplicates: -1}},
		{Dev: 2, Emits: []EmitSpan{{}}, Verdict: VerdictSpan{Outcome: "<remote & \"odd\">\n\u2028é"}},
		{Dev: math.MaxInt32, Seq: math.MaxInt64, Value: math.MinInt32, Emits: []EmitSpan{{TrueMs: 1.5e-7, EmitTrueMs: 2e21}}},
	}
	for i := range traces {
		want, err := json.Marshal(&traces[i])
		if err != nil {
			t.Fatal(err)
		}
		var e spanEnc
		if e.trace(&traces[i]); e.bad || !bytes.Equal(e.b, want) {
			t.Errorf("trace %d:\n got %s\nwant %s", i, e.b, want)
		}
	}

	// The writer: only slots with an emit, in (device, seq) order, one
	// line each.
	tel := NewTelemetry(3, 10)
	tel.byDev[0] = []MessageTrace{traces[3], {}, traces[4]}
	tel.byDev[2] = []MessageTrace{traces[2]}
	var got, want bytes.Buffer
	if err := tel.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	for _, tr := range tel.Traces() {
		b, _ := json.Marshal(tr)
		want.Write(append(b, '\n'))
	}
	if got.String() != want.String() || len(tel.Traces()) != 3 {
		t.Fatalf("WriteJSON:\n%s\nwant\n%s", got.String(), want.String())
	}

	// Non-finite floats fail as json.Marshal does.
	tel.byDev[1] = []MessageTrace{{Emits: []EmitSpan{{TrueMs: math.NaN()}}}}
	if err := tel.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("NaN span encoded without error")
	}
}
