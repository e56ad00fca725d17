package gate

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestSnapshotHugeSourceCount: a snapshot payload claiming 2^32-1 source
// entries is refused before anything is sized from the claim.
func TestSnapshotHugeSourceCount(t *testing.T) {
	p := appendU64(nil, 7)
	p = appendU32(p, math.MaxUint32)
	p = append(p, make([]byte, 64)...)
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, _, err := decodeSnapshot(p); err == nil {
			t.Fatal("snapshot with 2^32-1 claimed sources accepted")
		}
	})
	if allocs > 8 {
		t.Fatalf("refusing the claim took %v allocations", allocs)
	}
}

// TestFrameEchoFlagCanonical: an echo byte other than 0 or 1 is refused,
// so an accepted payload re-encodes to itself.
func TestFrameEchoFlagCanonical(t *testing.T) {
	p := encodeBatch("s", 1, []Frame{{Dev: 1, Seq: 2, Echo: true}})
	p[2+1+8+4+frameLen-9] = 2 // the echo byte precedes FreshMs
	if _, _, _, err := decodeBatch(p); err == nil {
		t.Fatal("echo flag 2 accepted")
	}
}

// FuzzWALDecode feeds arbitrary bytes to every WAL decoder: none may
// panic, decoded counts stay within what the input can physically hold,
// and every accepted batch re-encodes byte-identically.
func FuzzWALDecode(f *testing.F) {
	f.Add(encodeBatch("src", 3, []Frame{{Dev: 1, Seq: 2, Value: 3, SentMs: 1.5, ArriveMs: 4, Attempt: 1, Echo: true, FreshMs: 100}}))
	f.Add(encodeSnapshot(9, map[string]uint64{"a": 1, "": 2}, []Frame{{Dev: 5, Seq: 1}}))
	wal := append(fileHeader(), frameRecord(recBatch, encodeBatch("x", 1, nil))...)
	f.Add(wal)
	f.Add(binary.LittleEndian.AppendUint32(appendU64(nil, 1), math.MaxUint32))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, good := scanRecords(b)
		if good < 0 || good > int64(len(b)) {
			t.Fatalf("clean prefix %d of %d bytes", good, len(b))
		}
		if len(recs) > len(b)/recOverhead {
			t.Fatalf("%d records from %d bytes", len(recs), len(b))
		}
		if source, batch, frames, err := decodeBatch(b); err == nil {
			if len(frames) > len(b)/frameLen {
				t.Fatalf("%d frames from %d bytes", len(frames), len(b))
			}
			if re := encodeBatch(source, batch, frames); !bytes.Equal(re, b) {
				t.Fatalf("accepted batch re-encodes differently:\n in  %x\n out %x", b, re)
			}
		}
		if _, sources, best, err := decodeSnapshot(b); err == nil {
			if len(sources) > len(b)/minSourceLen || len(best) > len(b)/frameLen {
				t.Fatalf("%d sources, %d frames from %d bytes", len(sources), len(best), len(b))
			}
		}
	})
}
