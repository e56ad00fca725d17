package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/link"
)

// handImage lays out hand-assembled code as a loadable image the way
// link.Link would, with a 256-byte stack and no functions, so a test can
// place any instruction (or jump) the compiler would never emit.
func handImage(prog []isa.Instr) *link.Image {
	const runtimeBase, runtimeLen = 0x100, 16
	textBase := uint32(runtimeBase + runtimeLen)
	text := isa.EncodeAll(prog)
	globalsBase := (textBase + uint32(len(text)) + 3) &^ 3
	return &link.Image{
		Program:     &cc.Program{},
		Spec:        link.RuntimeSpec{Name: "plain", RuntimeBytes: runtimeLen, StackBytes: 256},
		Text:        text,
		TextBase:    textBase,
		EntryPC:     textBase,
		GlobalsBase: globalsBase,
		BSSBase:     globalsBase,
		RuntimeBase: runtimeBase,
		RuntimeLen:  runtimeLen,
		StackBase:   globalsBase + 64,
		StackLen:    256,
		Symbols:     map[string]uint32{},
	}
}

func runFault(t *testing.T, img *link.Image, want string) {
	t.Helper()
	m, err := New(Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil || res.Fault == nil || !strings.Contains(res.Fault.Error(), want) {
		t.Fatalf("want a %q fault, got %v / %+v", want, runErr, res)
	}
}

// TestJumpOffInstructionBoundary pins the fault for every way a PC can
// miss the decode table: inside a multi-byte instruction (the jump's own
// immediate), just below the text, just past it, and at the top of the
// address space. Each must be the machine's fault, never a Go index
// panic.
func TestJumpOffInstructionBoundary(t *testing.T) {
	const textBase = 0x110
	jmp := isa.Instr{Op: isa.Jmp}
	textLen := uint32(jmp.Size() + 1) // jmp X; halt
	for name, target := range map[string]uint32{
		"mid-instruction": textBase + 1,
		"below-text":      textBase - 1,
		"past-text":       textBase + textLen,
		"top-of-memory":   0xFFFFFFFF,
	} {
		t.Run(name, func(t *testing.T) {
			img := handImage([]isa.Instr{{Op: isa.Jmp, Imm: int32(target)}, {Op: isa.Halt}})
			if img.TextBase != textBase || uint32(len(img.Text)) != textLen {
				t.Fatalf("layout moved: text %#x+%d", img.TextBase, len(img.Text))
			}
			runFault(t, img, fmt.Sprintf("PC=%#x is not an instruction boundary", target))
		})
	}
}

func TestFaultStackUnderflow(t *testing.T) {
	runFault(t, handImage([]isa.Instr{{Op: isa.Drop}, {Op: isa.Halt}}), "stack underflow")
}

// TestDecodeTimeFields checks, for every opcode, the fields step reads
// from the decode table instead of the opcode tables.
func TestDecodeTimeFields(t *testing.T) {
	preStore := map[isa.Op]bool{
		isa.StoreGL: true, isa.StoreGBL: true, isa.StoreIL: true,
		isa.StoreIBL: true, isa.Mark: true, isa.SetTS: true,
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		in := isa.Instr{Op: op, Imm: 0x01020304}
		img := handImage([]isa.Instr{in})
		table, err := decodeImage(img)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if len(table) != in.Size() {
			t.Fatalf("%s: table has %d entries for a %d-byte instruction", op, len(table), in.Size())
		}
		if !isa.Lookup(op).HasImm {
			in.Imm = 0
		}
		d := table[0]
		if !d.ok || d.in != in || d.next != img.TextBase+uint32(in.Size()) {
			t.Errorf("%s: entry %+v", op, d)
		}
		if isa.Class(d.class) != isa.Lookup(op).Class {
			t.Errorf("%s: class %d, want %d", op, d.class, isa.Lookup(op).Class)
		}
		if d.preStore != preStore[op] {
			t.Errorf("%s: preStore %v, want %v", op, d.preStore, preStore[op])
		}
		for i := 1; i < len(table); i++ {
			if table[i].ok {
				t.Errorf("%s: byte %d of the instruction is marked a boundary", op, i)
			}
		}
	}
}

// TestResetRederivesCharges reuses one machine from a shared Prepared
// under a second cost model: the per-class charges (and the run's cycles
// and on-time) must follow the new model, not the one the machine was
// built with.
func TestResetRederivesCharges(t *testing.T) {
	img := handImage([]isa.Instr{{Op: isa.PushI, Imm: 7}, {Op: isa.StoreL, Imm: -4}, {Op: isa.Halt}})
	p, err := Prepare(img)
	if err != nil {
		t.Fatal(err)
	}
	slow := energy.Default()
	slow.Instr, slow.InstrMem, slow.InstrCtl, slow.TrapBase = 7, 11, 13, 17
	m, err := New(Config{Prepared: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, cost := range []energy.CostModel{energy.Default(), slow, energy.Default()} {
		if err := m.Reset(Config{Prepared: p, Cost: cost}); err != nil {
			t.Fatal(err)
		}
		want := [numClasses]int64{cost.Instr, cost.InstrMem, cost.InstrCtl, cost.TrapBase}
		if m.charge != want {
			t.Fatalf("charges %v after Reset, want %v", m.charge, want)
		}
		for c, cycles := range want {
			if m.chargeMs[c] != float64(cycles)/energy.CyclesPerMs {
				t.Fatalf("class %d: cached on-time %v for %d cycles", c, m.chargeMs[c], cycles)
			}
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			t.Fatalf("%v %+v", err, res)
		}
		cycles := cost.Instr + cost.InstrMem + cost.InstrCtl
		onMs := float64(cost.Instr)/energy.CyclesPerMs + float64(cost.InstrMem)/energy.CyclesPerMs +
			float64(cost.InstrCtl)/energy.CyclesPerMs
		if res.Cycles != cycles || res.OnMs != onMs {
			t.Fatalf("cost %+v: ran %d cycles / %v ms, want %d / %v", cost, res.Cycles, res.OnMs, cycles, onMs)
		}
	}
}
