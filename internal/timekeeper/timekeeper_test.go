package timekeeper_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/timekeeper"
)

func TestPerfect(t *testing.T) {
	k := &timekeeper.Perfect{}
	*k.Estimate() += 10.5 // powered time, as the machine adds it
	k.AdvanceOff(100)
	if k.Now() != 110 {
		t.Fatalf("perfect: %d", k.Now())
	}
	k.Reset()
	if k.Now() != 0 {
		t.Fatal("reset")
	}
}

func TestRTCQuantizes(t *testing.T) {
	k := &timekeeper.RTC{ResolutionMs: 10}
	k.AdvanceOff(25) // quantized to 20
	*k.Estimate() += 5
	if k.Now() != 25 {
		t.Fatalf("rtc: %d", k.Now())
	}
}

// TestRemanenceErrorBounded: the off-time estimate stays within the
// configured fractional error (up to the saturation horizon) and on-time
// is exact.
func TestRemanenceErrorBounded(t *testing.T) {
	check := func(seed uint64, offRaw uint16) bool {
		off := float64(offRaw%5000) + 1
		k := timekeeper.NewRemanence(0.1, 10_000, seed)
		k.AdvanceOff(off)
		est := float64(k.Now())
		return est >= off*0.9-1 && est <= off*1.1+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRemanenceSaturates(t *testing.T) {
	k := timekeeper.NewRemanence(0, 1000, 1)
	k.AdvanceOff(50_000) // far past the decay horizon
	if got := float64(k.Now()); math.Abs(got-1000) > 1 {
		t.Fatalf("saturation: estimated %f for a 50 s outage", got)
	}
}

// TestEstimateSurvivesResetAndCopy: the machine takes Estimate once per
// run, so the pointer must keep addressing the live estimate after Reset
// and CopyState, for every keeper.
func TestEstimateSurvivesResetAndCopy(t *testing.T) {
	for _, mk := range []func() timekeeper.Keeper{
		func() timekeeper.Keeper { return &timekeeper.Perfect{} },
		func() timekeeper.Keeper { return &timekeeper.RTC{ResolutionMs: 10} },
		func() timekeeper.Keeper { return timekeeper.NewRemanence(0.1, 5000, 3) },
	} {
		k, src := mk(), mk()
		est := k.Estimate()
		*est += 7.5
		if k.Now() != 7 {
			t.Fatalf("%s: on-time through Estimate: %d", k.Name(), k.Now())
		}
		k.Reset()
		*est += 3
		if k.Now() != 3 {
			t.Fatalf("%s: after Reset: %d", k.Name(), k.Now())
		}
		*src.Estimate() += 42
		if !k.CopyState(src) {
			t.Fatalf("%s: CopyState from its own kind failed", k.Name())
		}
		*est += 1
		if k.Now() != 43 || src.Now() != 42 {
			t.Fatalf("%s: after CopyState: %d (src %d)", k.Name(), k.Now(), src.Now())
		}
	}
}

func TestRemanenceDeterministic(t *testing.T) {
	a := timekeeper.NewRemanence(0.2, 5000, 7)
	b := timekeeper.NewRemanence(0.2, 5000, 7)
	for i := 0; i < 20; i++ {
		a.AdvanceOff(float64(10 * (i + 1)))
		b.AdvanceOff(float64(10 * (i + 1)))
	}
	if a.Now() != b.Now() {
		t.Fatal("nondeterministic remanence keeper")
	}
	a.Reset()
	if a.Now() != 0 {
		t.Fatal("reset")
	}
}
