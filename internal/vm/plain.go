package vm

import "repro/internal/obs"

// Plain is the unprotected runtime: a conventional C runtime with no
// intermittency support. Under continuous power it is the correctness
// oracle every protected runtime is compared against. Under intermittent
// power it restarts main() from scratch at every reboot while non-volatile
// globals keep their last (possibly half-updated) values — the legacy-code
// failure mode that motivates the paper.
type Plain struct {
	reg *obs.Registry
}

// NewPlain returns a fresh plain runtime.
func NewPlain() *Plain { return &Plain{reg: obs.NewRegistry()} }

// Name implements Runtime.
func (p *Plain) Name() string { return "plain" }

// CopyState implements Runtime: the counters are the only state.
func (p *Plain) CopyState(src Runtime) bool {
	s, ok := src.(*Plain)
	return ok && p.reg.CopyFrom(s.reg) == nil
}

// Boot implements Runtime: every boot — cold or not — starts over at the
// entry stub with an empty stack.
func (p *Plain) Boot(m *Machine, cold bool) error {
	if !cold {
		p.reg.Inc("restarts")
	}
	m.Regs = Registers{
		PC: m.Img.EntryPC,
		SP: m.Img.StackBase + m.Img.StackLen,
		FP: m.Img.StackBase + m.Img.StackLen,
	}
	return nil
}

// Enter implements Runtime: a conventional prologue with an overflow check.
func (p *Plain) Enter(m *Machine, fn int) error {
	meta, err := m.Img.FuncAt(fn)
	if err != nil {
		return err
	}
	if m.Regs.SP < m.Img.StackBase+uint32(meta.FrameBytes) {
		m.Fault("stack overflow entering %s", meta.Name)
	}
	m.Push(m.Regs.FP)
	m.Regs.FP = m.Regs.SP
	m.Regs.SP -= uint32(meta.LocalBytes)
	return nil
}

// Leave implements Runtime: epilogue plus return.
func (p *Plain) Leave(m *Machine) error {
	m.Regs.SP = m.Regs.FP
	m.Regs.FP = m.Pop()
	m.Regs.PC = m.Pop()
	return nil
}

// PreStore implements Runtime as a no-op: plain code has no log to fill.
func (p *Plain) PreStore(m *Machine) error { return nil }

// LoggedStore implements Runtime: no consistency discipline, just a store.
func (p *Plain) LoggedStore(m *Machine, addr uint32, size int, value uint32) error {
	m.RawStore(addr, size, value)
	return nil
}

// Checkpoint implements Runtime as a no-op: plain code has no checkpoints.
func (p *Plain) Checkpoint(m *Machine, kind CpKind) error { return nil }

// OnExpiry implements Runtime as a no-op: exception-based data expiration
// needs TICS's restore-to-block-entry machinery; a conventional runtime
// cannot unwind to the catch handler mid-call, so the expiration goes
// unhandled (the phenomenon the paper says no checkpointing system had
// addressed). The @expires entry check still routes stale data to catch.
func (p *Plain) OnExpiry(m *Machine) error { return nil }

// Transition implements Runtime: plain code has no task engine.
func (p *Plain) Transition(m *Machine, task int32) error {
	m.Fault("transition_to(%d) without a task runtime", task)
	return nil
}

// OnInterrupt implements Runtime: a plain call-like transfer into the ISR.
func (p *Plain) OnInterrupt(m *Machine, isrEntry uint32) error {
	m.Push(m.Regs.PC)
	m.Regs.PC = isrEntry
	return nil
}

// OnInterruptReturn implements Runtime as a no-op.
func (p *Plain) OnInterruptReturn(m *Machine) error { return nil }

// Stats implements Runtime. The returned map is a defensive snapshot:
// mutating it cannot corrupt the live counters.
func (p *Plain) Stats() map[string]int64 { return p.reg.CounterSnapshot() }
