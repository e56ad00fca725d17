package vm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/power"
)

// outcome is everything a run leaves behind that the stack view could
// get wrong.
type outcome struct {
	res   Result
	fault string
	regs  Registers
	mem   []byte
}

// runPaths runs img twice under the same config — once as built, with
// the stack view, and once on the fallback path through the memory's
// checked word access — and fails unless both runs end identically. It
// returns the direct run's outcome.
func runPaths(t *testing.T, img *link.Image, cfg func() Config) outcome {
	t.Helper()
	run := func(direct bool) outcome {
		c := cfg()
		c.Image = img
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if !direct {
			m.stack, m.stackFits = nil, 0
		}
		res, _ := m.Run()
		o := outcome{res: res, regs: m.Regs, mem: m.Mem.Snapshot()}
		if res.Fault != nil {
			o.fault = res.Fault.Error()
			o.res.Fault = nil
		}
		return o
	}
	got, want := run(true), run(false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("direct and fallback paths differ:\ndirect   %+v %q regs %+v\nfallback %+v %q regs %+v",
			got.res, got.fault, got.regs, want.res, want.fault, want.regs)
	}
	return got
}

// withStack is handImage with a stack of n bytes.
func withStack(prog []isa.Instr, n uint32) *link.Image {
	img := handImage(prog)
	img.StackLen = n
	img.Spec.StackBytes = int(n)
	return img
}

func plainCfg() Config { return Config{MaxCycles: 1_000_000} }

func TestStackOverflowUnderflowMatchFallback(t *testing.T) {
	for name, c := range map[string]struct {
		prog []isa.Instr
		want string
	}{
		"overflow":  {[]isa.Instr{{Op: isa.PushI, Imm: 1}, {Op: isa.Jmp, Imm: 0x110}}, "stack overflow: SP="},
		"underflow": {[]isa.Instr{{Op: isa.PushI, Imm: 1}, {Op: isa.Drop}, {Op: isa.Drop}}, "stack underflow: SP="},
	} {
		t.Run(name, func(t *testing.T) {
			o := runPaths(t, handImage(c.prog), plainCfg)
			if len(o.fault) < len(c.want) || o.fault[:len(c.want)] != c.want {
				t.Fatalf("fault %q, want %q", o.fault, c.want)
			}
			if o.res.Cycles == 0 {
				t.Fatal("the fault charged no cycles")
			}
		})
	}
}

// TestAddSPOffTheView moves SP where the view cannot serve a word: off
// alignment inside the stack, straddling its top, and past it.
func TestAddSPOffTheView(t *testing.T) {
	for _, delta := range []int32{-2, -1, 1, 2, 3, 4, 6, 8, 64} {
		t.Run(fmt.Sprint(delta), func(t *testing.T) {
			prog := []isa.Instr{
				{Op: isa.PushI, Imm: 0x11223344},
				{Op: isa.AddSP, Imm: delta},
				{Op: isa.PushI, Imm: 0x55667788},
				{Op: isa.Out, Imm: 0},
				{Op: isa.Out, Imm: 1},
				{Op: isa.Out, Imm: 2},
				{Op: isa.Halt},
			}
			runPaths(t, handImage(prog), plainCfg)
		})
	}
}

// TestTinyStacks runs pushes and pops on stacks of 2, 4 and 6 bytes: no
// view (shorter than a word), a one-word view, and a view with a ragged
// end. (The loader rejects an empty stack region outright.)
func TestTinyStacks(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.PushI, Imm: 7},
		{Op: isa.Dup},
		{Op: isa.Add},
		{Op: isa.Out, Imm: 0},
		{Op: isa.PushI, Imm: 1},
		{Op: isa.PushI, Imm: 2},
		{Op: isa.Halt},
	}
	for _, n := range []uint32{2, 4, 6} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			o := runPaths(t, withStack(prog, n), plainCfg)
			if o.fault == "" {
				t.Fatalf("a %d-byte stack held two words", n)
			}
		})
	}
}

// loopProg is a counting loop around a frame store, so every constraint
// below lands on each of its instructions in turn.
var loopProg = []isa.Instr{
	{Op: isa.PushI, Imm: 0},
	{Op: isa.PushI, Imm: 1}, // 0x115: loop head
	{Op: isa.Add},
	{Op: isa.Dup},
	{Op: isa.StoreL, Imm: -8},
	{Op: isa.Dup},
	{Op: isa.PushI, Imm: 3000},
	{Op: isa.CmpLt},
	{Op: isa.Jnz, Imm: 0x115},
	{Op: isa.Out, Imm: 0},
	{Op: isa.Halt},
}

// TestRunLimitsMatchFallback runs the loop with the window, the
// watchdog, the checkpoint timer and the wall budget each placed at every
// cycle offset across a loop iteration, so a power failure, a checkpoint
// and a cut-off land on each stack access.
func TestRunLimitsMatchFallback(t *testing.T) {
	img := handImage(loopProg)
	for k := int64(1); k <= 64; k++ {
		for _, cfg := range map[string]func() Config{
			"window": func() Config { return Config{Power: &power.FailEvery{Cycles: 200 + k, OffMs: 1}, MaxCycles: 60_000} },
			"sched": func() Config {
				src, err := power.ParseSchedule(fmt.Sprintf("sched:%d@2,%d@3", 1000+k, 2000+3*k))
				if err != nil {
					t.Fatal(err)
				}
				return Config{Power: src, MaxCycles: 60_000}
			},
			"watchdog": func() Config { return Config{MaxCycles: 5000 + k} },
			"timer":    func() Config { return Config{AutoCpPeriodMs: float64(k) / 8, MaxCycles: 60_000} },
			"wall":     func() Config { return Config{MaxWallMs: 5 + float64(k)/7, MaxCycles: 60_000} },
		} {
			runPaths(t, img, cfg)
		}
	}
}
