// BenchmarkGateIngest prices the ticsgate durable-ingest path: frames
// per second through the fsync-on-batch WAL, WAL bytes per frame, and
// how long a cold Open (recovery replay) of the produced log takes. The
// results ride in the TICS_BENCH_LEDGER ledger (see updateLedger) under
// "gate" (merge-by-key, same ledger as the fleet sweep) so `ticsbench
// -compare` and the validator gate gateway-service regressions alongside
// fleet throughput.
package tics_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/fleet"
	"repro/internal/gate"
)

// gateBatchSizes mirror realistic wave sizes: a trickle, a typical
// wave, and a large fleet's wave.
var gateBatchSizes = []int{1, 64, 512}

// gateFrames builds one batch of synthetic channel arrivals.
func gateFrames(n int, batch uint64) []gate.Frame {
	frames := make([]gate.Frame, n)
	for i := range frames {
		seq := int64(batch)*int64(n) + int64(i)
		frames[i] = gate.FrameFromArrival(fleet.Arrival{
			Dev: i % 97, Seq: seq, Value: int32(seq),
			SentMs: float64(seq), ArriveMs: float64(seq) + 7.5,
		}, 500)
	}
	return frames
}

func BenchmarkGateIngest(b *testing.B) {
	results := map[string]*bench.GateEntry{}
	for _, size := range gateBatchSizes {
		b.Run(bench.GateKey(size), func(b *testing.B) {
			dir := b.TempDir()
			st, err := gate.Open(dir, gate.Options{CompactLimit: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				applied, err := st.Ingest("bench", uint64(i+1), gateFrames(size, uint64(i)))
				if err != nil || !applied {
					b.Fatalf("batch %d: applied=%v err=%v", i+1, applied, err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			frames := int64(b.N) * int64(size)
			walBytes := st.WALBytes()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}

			// Recovery cost: a cold open replays everything just written.
			st2, err := gate.Open(dir, gate.Options{CompactLimit: -1})
			if err != nil {
				b.Fatal(err)
			}
			rec := st2.Recovery()
			if rec.Batches != b.N || rec.ReplayedFrames != int(frames) {
				b.Fatalf("recovery replayed %d batches / %d frames, want %d / %d",
					rec.Batches, rec.ReplayedFrames, b.N, frames)
			}
			st2.Close()

			e := &bench.GateEntry{
				BatchFrames:   size,
				Batches:       b.N,
				FramesPerSec:  float64(frames) / elapsed,
				WALBytesFrame: float64(walBytes) / float64(frames),
				RecoveryMs:    rec.DurationMs,
			}
			b.ReportMetric(e.FramesPerSec, "frames/s")
			b.ReportMetric(e.WALBytesFrame, "walB/frame")
			b.ReportMetric(e.RecoveryMs, "recovery-ms")
			results[bench.GateKey(size)] = e
		})
	}
	if len(results) != len(gateBatchSizes) {
		return // sub-benchmark filter excluded some sizes; don't write a partial table
	}
	updateLedger(b, func(f *bench.File) {
		for key, e := range results {
			f.SetGate(key, e)
		}
	})
}
