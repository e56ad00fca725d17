package gate

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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

// ingestSeeds are the ingest fuzz seeds: valid, duplicate, gapped,
// empty and malformed batches.
var ingestSeeds = [][]byte{
	[]byte(`{"source":"s","batch":1,"frames":[{"dev":1,"seq":2,"arrive_ms":3}]}`),
	[]byte(`{"source":"s","batch":9,"frames":[]}`),
	[]byte(`{"frames":[{},{},{},{},{},{},{},{},{},{}]}`),
	[]byte(`{"source":"","batch":1,"frames":null}`),
	[]byte("{nope"),
}

// limitedIngest returns an ingest handler over a fresh store with the
// limits lowered to maxBody bytes and 8 frames, so small inputs reach
// them.
func limitedIngest(tb testing.TB, maxBody int64) http.Handler {
	st, err := Open(tb.TempDir(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	srv := NewServer(st)
	srv.maxBody, srv.maxFrames = maxBody, 8
	return srv.Handler()
}

// postRaw sends body to h's ingest endpoint and returns the status.
func postRaw(h http.Handler, body []byte) int {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	return w.Code
}

// FuzzIngestBody posts arbitrary bytes to the ingest handler, with the
// limits lowered so the fuzzer reaches them: it must never panic and must
// answer 200, 400, 409 or 413. TestIngestBodyAllocation bounds what a
// request allocates.
func FuzzIngestBody(f *testing.F) {
	for _, b := range ingestSeeds {
		f.Add(b)
	}
	h := limitedIngest(f, 4096)
	f.Fuzz(func(t *testing.T, body []byte) {
		switch code := postRaw(h, body); code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for %q", code, body)
		}
	})
}

// TestIngestBodyAllocation bounds what one ingest request allocates, on
// the fuzz seeds and on bodies past each limit: 8 MiB of padding, 8 MiB
// of garbage and a batch over the frame limit. Averaged over repeated
// requests on a single P, the bytes allocated stay proportional to what
// the handler may read, however long the body is.
func TestIngestBodyAllocation(t *testing.T) {
	const maxBody = 4096
	h := limitedIngest(t, maxBody)
	bodies := append([][]byte{
		[]byte(`{"source":"s","batch":1,"frames":[` + strings.Repeat(" ", 8<<20) + `]}`),
		bytes.Repeat([]byte("x"), 8<<20),
		[]byte(`{"source":"s","batch":1,"frames":[` + strings.Repeat(`{"dev":1},`, 20) + `{}]}`),
	}, ingestSeeds...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 16
	for i, body := range bodies {
		postRaw(h, body) // warm up: the first request may apply a batch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			postRaw(h, body)
		}
		runtime.ReadMemStats(&after)
		alloc := (after.TotalAlloc - before.TotalAlloc) / runs
		if bound := uint64(256*min(len(body), maxBody) + 1<<20); alloc > bound {
			t.Errorf("body %d: %d bytes allocated %d per request, over %d", i, len(body), alloc, bound)
		}
	}
	if code := postRaw(h, bodies[0]); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded 8 MiB body: status %d, want 413", code)
	}
	if code := postRaw(h, bodies[2]); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("21-frame batch: status %d, want 413", code)
	}
}
