package vm_test

import (
	"fmt"
	"testing"

	"repro/internal/power"
	"repro/internal/vm"
)

const resumeSrc = `
int g;
int work(int x) { return x * 3 + 1; }
int main() {
    int i;
    for (i = 0; i < 400; i++) { g = g + work(i); out(0, g); }
    send(g);
    return 0;
}
`

// voltageCheck is the plain runtime plus a MementOS-style read of the
// window's remaining cycles at every call.
type voltageCheck struct {
	*vm.Plain
	reads int
}

func (v *voltageCheck) Enter(m *vm.Machine, fn int) error {
	if m.Remaining() < 0 {
		panic("negative window")
	}
	v.reads++
	return v.Plain.Enter(m, fn)
}

// TestPlainResumeMatchesFresh: a plain-runtime run paused at a boundary
// of the continuous run and resumed under "sched:c@5" equals a fresh run
// of that schedule — the vm.Result (logs and stats included) and the
// restart the cut causes.
func TestPlainResumeMatchesFresh(t *testing.T) {
	prep, err := vm.Prepare(build(t, resumeSrc))
	if err != nil {
		t.Fatal(err)
	}
	newMachine := func(windows []power.SchedWindow) *vm.Machine {
		m, err := vm.New(vm.Config{Prepared: prep, Power: &power.Schedule{Windows: windows}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct{ pause, cut int64 }{{0, 10}, {500, 900}, {3980, 4000}, {20000, 20100}} {
		windows := []power.SchedWindow{{Cycles: tc.cut, OffMs: 5}}
		want, _ := newMachine(windows).Run()
		leader := newMachine(nil)
		var got *vm.Result
		leader.PauseAt(tc.pause, func() {
			defer leader.Halt()
			if leader.Cycles() > tc.cut {
				t.Fatalf("pause at %d passed cut %d", leader.Cycles(), tc.cut)
			}
			child := newMachine(windows)
			if !child.CopyState(leader) {
				t.Fatal("plain machine state did not copy")
			}
			res, err := child.Resume()
			if err != nil {
				t.Fatal(err)
			}
			got = &res
		})
		leader.Run()
		if got == nil {
			t.Fatalf("pause %d: never fired", tc.pause)
		}
		if fmt.Sprintf("%+v", *got) != fmt.Sprintf("%+v", want) {
			t.Errorf("pause %d cut %d: resumed\n%+v\nfresh\n%+v", tc.pause, tc.cut, *got, want)
		}
		if want.Failures != 1 || !want.Completed {
			t.Errorf("cut %d: fresh run %+v, want one failure then completion", tc.cut, want)
		}
	}
}

// TestPauseStopsAfterRemainingRead: once the current window has read
// Remaining, the rest of the run depends on the window's length, so an
// armed pause never fires; a run that never reads it pauses, and a
// resume point past the child's cut is refused.
func TestPauseStopsAfterRemainingRead(t *testing.T) {
	prep, err := vm.Prepare(build(t, resumeSrc))
	if err != nil {
		t.Fatal(err)
	}
	vc := &voltageCheck{Plain: vm.NewPlain()}
	m, err := vm.New(vm.Config{Prepared: prep, Runtime: vc})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	m.PauseAt(1000, func() { fired = true })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if vc.reads == 0 || fired {
		t.Fatalf("reads=%d fired=%v: a pause fired after a Remaining read", vc.reads, fired)
	}

	plain, err := vm.New(vm.Config{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	var resumeErr error
	plain.PauseAt(1000, func() {
		child, err := vm.New(vm.Config{Prepared: prep, Power: &power.Schedule{Windows: []power.SchedWindow{{Cycles: 500}}}})
		if err != nil {
			t.Fatal(err)
		}
		if !child.CopyState(plain) {
			t.Fatal("plain machine state did not copy")
		}
		_, resumeErr = child.Resume()
		plain.Halt()
	})
	plain.Run()
	if resumeErr == nil {
		t.Fatal("resume past the cut accepted")
	}
}
