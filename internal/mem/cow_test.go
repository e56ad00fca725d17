package mem_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// seededBase builds a base snapshot with a pseudo-random fill and a
// region table, mimicking a post-link image.
func seededBase(t *testing.T, seed int64) *mem.Base {
	t.Helper()
	m := mem.New()
	rng := rand.New(rand.NewSource(seed))
	fill := make([]byte, mem.Size)
	rng.Read(fill)
	m.WriteBytes(0, fill)
	for _, r := range []mem.Region{
		{Kind: mem.RegionRuntime, Name: "runtime", Base: 0x40, Len: 0x1000},
		{Kind: mem.RegionText, Name: ".text", Base: 0x2000, Len: 0x2000},
		{Kind: mem.RegionStack, Name: "stack", Base: 0x8000, Len: 0x800},
	} {
		if err := m.AddRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	return m.Freeze()
}

// flatFromBase replays a base into a flat memory so flat and fork start
// byte- and region-identical.
func flatFromBase(t *testing.T, b *mem.Base) *mem.Memory {
	t.Helper()
	fork := mem.Fork(b)
	m := mem.New()
	m.Restore(fork.Snapshot())
	for _, r := range fork.Regions() {
		if err := m.AddRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetStats()
	return m
}

// op applies the same randomly chosen operation to both memories and
// reports a description for failure messages. Ops that return values are
// compared; ops that can panic are run under matching recover on both.
func applyRandomOp(t *testing.T, rng *rand.Rand, a, b *mem.Memory) string {
	t.Helper()
	addr := uint32(rng.Intn(mem.Size + 16)) // occasionally out of range
	n := rng.Intn(3 * mem.PageSize)
	switch k := rng.Intn(10); k {
	case 0:
		desc := fmt.Sprintf("ReadByteAt(%#x)", addr)
		va, pa := tryByte(func() byte { return a.ReadByteAt(addr) })
		vb, pb := tryByte(func() byte { return b.ReadByteAt(addr) })
		if pa != pb || va != vb {
			t.Fatalf("%s: flat (%v,%v) vs fork (%v,%v)", desc, va, pa, vb, pb)
		}
		return desc
	case 1:
		v := byte(rng.Intn(256))
		desc := fmt.Sprintf("WriteByteAt(%#x,%d)", addr, v)
		pa := try(func() { a.WriteByteAt(addr, v) })
		pb := try(func() { b.WriteByteAt(addr, v) })
		if pa != pb {
			t.Fatalf("%s: panic flat=%v fork=%v", desc, pa, pb)
		}
		return desc
	case 2:
		desc := fmt.Sprintf("ReadWord(%#x)", addr)
		va, pa := tryWord(func() uint32 { return a.ReadWord(addr) })
		vb, pb := tryWord(func() uint32 { return b.ReadWord(addr) })
		if pa != pb || va != vb {
			t.Fatalf("%s: flat (%v,%v) vs fork (%v,%v)", desc, va, pa, vb, pb)
		}
		return desc
	case 3:
		v := rng.Uint32()
		desc := fmt.Sprintf("WriteWord(%#x,%#x)", addr, v)
		pa := try(func() { a.WriteWord(addr, v) })
		pb := try(func() { b.WriteWord(addr, v) })
		if pa != pb {
			t.Fatalf("%s: panic flat=%v fork=%v", desc, pa, pb)
		}
		return desc
	case 4:
		desc := fmt.Sprintf("ReadBytes(%#x,%d)", addr, n)
		var va, vb []byte
		pa := try(func() { va = a.ReadBytes(addr, n) })
		pb := try(func() { vb = b.ReadBytes(addr, n) })
		if pa != pb || !bytes.Equal(va, vb) {
			t.Fatalf("%s: mismatch (panic flat=%v fork=%v)", desc, pa, pb)
		}
		return desc
	case 5:
		buf := make([]byte, n)
		rng.Read(buf)
		desc := fmt.Sprintf("WriteBytes(%#x,len %d)", addr, n)
		pa := try(func() { a.WriteBytes(addr, buf) })
		pb := try(func() { b.WriteBytes(addr, buf) })
		if pa != pb {
			t.Fatalf("%s: panic flat=%v fork=%v", desc, pa, pb)
		}
		return desc
	case 6:
		src := uint32(rng.Intn(mem.Size + 16))
		if rng.Intn(2) == 0 && src < mem.Size {
			// Bias toward overlapping moves to exercise memmove paths.
			addr = src + uint32(rng.Intn(2*mem.PageSize)) - mem.PageSize
			if addr >= mem.Size {
				addr = 0
			}
		}
		desc := fmt.Sprintf("CopyWithin(%#x,%#x,%d)", addr, src, n)
		pa := try(func() { a.CopyWithin(addr, src, n) })
		pb := try(func() { b.CopyWithin(addr, src, n) })
		if pa != pb {
			t.Fatalf("%s: panic flat=%v fork=%v", desc, pa, pb)
		}
		return desc
	case 7:
		desc := fmt.Sprintf("Zero(%#x,%d)", addr, n)
		pa := try(func() { a.Zero(addr, n) })
		pb := try(func() { b.Zero(addr, n) })
		if pa != pb {
			t.Fatalf("%s: panic flat=%v fork=%v", desc, pa, pb)
		}
		return desc
	case 8:
		buf1 := make([]byte, n)
		buf2 := make([]byte, n)
		desc := fmt.Sprintf("Peek(%#x,%d)", addr, n)
		pa := try(func() { a.Peek(addr, buf1) })
		pb := try(func() { b.Peek(addr, buf2) })
		if pa != pb || !bytes.Equal(buf1, buf2) {
			t.Fatalf("%s: mismatch (panic flat=%v fork=%v)", desc, pa, pb)
		}
		return desc
	default:
		desc := fmt.Sprintf("PeekWord(%#x)", addr)
		va, pa := tryWord(func() uint32 { return a.PeekWord(addr) })
		vb, pb := tryWord(func() uint32 { return b.PeekWord(addr) })
		if pa != pb || va != vb {
			t.Fatalf("%s: flat (%v,%v) vs fork (%v,%v)", desc, va, pa, vb, pb)
		}
		return desc
	}
}

func try(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return
}

func tryByte(f func() byte) (v byte, panicked bool) {
	defer func() { panicked = recover() != nil }()
	v = f()
	return
}

func tryWord(f func() uint32) (v uint32, panicked bool) {
	defer func() { panicked = recover() != nil }()
	v = f()
	return
}

// TestForkMatchesFlat drives a flat memory and a COW fork through the same
// random operation sequences and demands identical values, panics, stats,
// and final snapshots.
func TestForkMatchesFlat(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 101} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := seededBase(t, seed)
			fork := mem.Fork(base)
			flat := flatFromBase(t, base)
			rng := rand.New(rand.NewSource(seed * 31))
			var last string
			for i := 0; i < 4000; i++ {
				last = applyRandomOp(t, rng, flat, fork)
			}
			if flat.Stats() != fork.Stats() {
				t.Fatalf("stats diverged after %q: flat %+v fork %+v", last, flat.Stats(), fork.Stats())
			}
			if !bytes.Equal(flat.Snapshot(), fork.Snapshot()) {
				t.Fatalf("snapshots diverged after %q", last)
			}
			if fork.PrivatePages() == 0 || fork.PrivatePages() == mem.NumPages {
				t.Logf("fork materialized %d/%d pages", fork.PrivatePages(), mem.NumPages)
			}
		})
	}
}

// TestForkSharesUntouchedPages pins the whole point of the fork: reads
// alone materialize nothing, and a write materializes exactly one page.
func TestForkSharesUntouchedPages(t *testing.T) {
	base := seededBase(t, 5)
	f := mem.Fork(base)
	for a := uint32(0); a < mem.Size; a += 64 {
		f.ReadWord(a)
	}
	if got := f.PrivatePages(); got != 0 {
		t.Fatalf("reads materialized %d pages", got)
	}
	const probe = 3*mem.PageSize + 5
	orig := f.ReadByteAt(probe)
	f.WriteByteAt(probe, orig+1)
	if got := f.PrivatePages(); got != 1 {
		t.Fatalf("one write materialized %d pages", got)
	}
	// A second fork of the same base must not see the first fork's write.
	if got := mem.Fork(base).ReadByteAt(probe); got != orig {
		t.Fatalf("forks share written pages: %d != %d", got, orig)
	}
}

// TestForkRestorePreservesSharing pins that restoring a pre-divergence
// snapshot does not materialize untouched pages.
func TestForkRestorePreservesSharing(t *testing.T) {
	base := seededBase(t, 9)
	f := mem.Fork(base)
	snap := f.Snapshot()
	f.WriteWord(0x100, 0xDEAD)
	f.WriteWord(0x9000, 0xBEEF)
	if got := f.PrivatePages(); got != 2 {
		t.Fatalf("expected 2 private pages, got %d", got)
	}
	f.Restore(snap)
	if got := f.PrivatePages(); got != 2 {
		t.Fatalf("restore changed private set: %d", got)
	}
	if !bytes.Equal(f.Snapshot(), snap) {
		t.Fatal("restore did not reproduce the snapshot")
	}
}

// TestResetToBase pins pooled-reuse semantics: contents, regions and stats
// all return to the freshly forked state.
func TestResetToBase(t *testing.T) {
	base := seededBase(t, 13)
	want := mem.Fork(base).Snapshot()

	f := mem.Fork(base)
	f.WriteBytes(0x400, bytes.Repeat([]byte{0xEE}, 3000))
	f.Zero(0xF000, 512)
	f.ResetToBase(base)
	if !bytes.Equal(f.Snapshot(), want) {
		t.Fatal("reset did not restore base contents")
	}
	if f.Stats() != (mem.Stats{}) {
		t.Fatalf("reset kept stats: %+v", f.Stats())
	}
	if len(f.Regions()) != 3 {
		t.Fatalf("reset lost regions: %v", f.Regions())
	}

	// Rebinding a flat memory to a base works too.
	flat := mem.New()
	flat.WriteWord(0, 42)
	flat.ResetToBase(base)
	if !bytes.Equal(flat.Snapshot(), want) {
		t.Fatal("flat rebind did not adopt base contents")
	}
	if got := flat.PrivatePages(); got != 0 {
		t.Fatalf("flat rebind kept %d private pages", got)
	}
}

// TestViewAliasesMemory pins the ownership contract of View on a fork:
// bytes written through the view are what ReadWord, Snapshot, CopyFrom
// and Restore see, Memory writes show through the view, and the view
// survives ResetToBase with the same base and CopyFrom — each of which
// refills the view's pages in place — while the stats count exactly
// what NoteRead and NoteWrite report.
func TestViewAliasesMemory(t *testing.T) {
	b := seededBase(t, 7)
	const lo, hi = 0x7f02, 0x87fe // ragged ends over three pages
	m := mem.Fork(b)
	v := m.View(lo, hi)
	if len(v) != hi-lo {
		t.Fatalf("view of %d bytes, want %d", len(v), hi-lo)
	}
	if got := m.PrivatePages(); got != 3 {
		t.Fatalf("%d private pages after a three-page view", got)
	}
	fresh := mem.Fork(b)
	if !bytes.Equal(v, fresh.ReadBytes(lo, hi-lo)) {
		t.Fatal("a fresh view does not hold the base's bytes")
	}

	// View → Memory, across a page boundary.
	at := uint32(0x8000 - 2)
	copy(v[at-lo:], []byte{1, 2, 3, 4})
	m.NoteWrite(4)
	if got := m.ReadWord(at); got != 0x04030201 {
		t.Fatalf("ReadWord after a view write: %#x", got)
	}
	if snap := m.Snapshot(); !bytes.Equal(snap[at:at+4], []byte{1, 2, 3, 4}) {
		t.Fatal("Snapshot misses a view write")
	}
	// Memory → View.
	m.WriteWord(0x8400, 0xdeadbeef)
	if v[0x8400-lo] != 0xef || v[0x8403-lo] != 0xde {
		t.Fatal("a Memory write is not seen through the view")
	}
	if st := m.Stats(); st != (mem.Stats{Reads: 1, Writes: 2, ReadBytes: 4, WriteBytes: 8}) {
		t.Fatalf("stats %+v", st)
	}
	m.NoteRead(4)
	if st := m.Stats(); st.Reads != 2 || st.ReadBytes != 8 {
		t.Fatalf("NoteRead not counted: %+v", st)
	}

	// CopyFrom into another fork sees the view's bytes; CopyFrom back
	// into m refills the view in place.
	other := mem.Fork(b)
	if !other.CopyFrom(m) || other.ReadWord(at) != 0x04030201 {
		t.Fatal("CopyFrom misses a view write")
	}
	other.WriteWord(0x8100, 0x01020304)
	if !m.CopyFrom(other) || v[0x8100-lo] != 0x04 {
		t.Fatal("CopyFrom does not refill the view")
	}

	// Restore writes through the view.
	snap := m.Snapshot()
	snap[0x7f10] = 0x5a
	m.Restore(snap)
	if v[0x7f10-lo] != 0x5a {
		t.Fatal("Restore does not write through the view")
	}

	// ResetToBase with the same base keeps the view and refills it.
	m.ResetToBase(b)
	if !bytes.Equal(v, fresh.ReadBytes(lo, hi-lo)) {
		t.Fatal("ResetToBase does not refill the view from the base")
	}
	if st := m.Stats(); st != (mem.Stats{}) {
		t.Fatalf("stats after ResetToBase: %+v", st)
	}
	if m.PrivatePages() != 3 {
		t.Fatalf("ResetToBase released view pages: %d private", m.PrivatePages())
	}
	v[0x8200-lo] = 0x77
	if m.ReadByteAt(0x8200) != 0x77 {
		t.Fatal("the view is detached after ResetToBase")
	}
}

// TestViewOnFlatMemory checks View on a flat memory, whose pages are
// already private, and that an empty or out-of-range view panics.
func TestViewOnFlatMemory(t *testing.T) {
	m := mem.New()
	m.WriteWord(0x100, 0xa1b2c3d4)
	v := m.View(0x100, 0x104)
	if v[0] != 0xd4 || v[3] != 0xa1 {
		t.Fatal("the view does not hold the memory's bytes")
	}
	v[1] = 0
	if m.ReadWord(0x100) != 0xa1b200d4 {
		t.Fatal("a view write is not seen by ReadWord")
	}
	if m.PrivatePages() != mem.NumPages {
		t.Fatalf("flat memory owns %d pages", m.PrivatePages())
	}
	for _, r := range [][2]uint32{{0x10, 0x10}, {0x20, 0x10}, {mem.Size - 4, mem.Size + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%#x, %#x) did not panic", r[0], r[1])
				}
			}()
			m.View(r[0], r[1])
		}()
	}
}
