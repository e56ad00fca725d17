package mc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/replay"
)

// sharedCase is one sweep whose shared-prefix outcomes are compared with
// runs from cycle 0.
type sharedCase struct {
	name string
	cfg  Config
}

func sharedCases(t *testing.T) []sharedCase {
	maxSchedules := 40
	if testing.Short() || raceDetector {
		maxSchedules = 8
	}
	var cases []sharedCase
	for _, p := range shippedSpecs() {
		cases = append(cases, sharedCase{"shipped/" + p.label, Config{Spec: p.spec, Depth: 2, MaxSchedules: maxSchedules}})
	}
	swap, ok := apps.ByName("swap")
	if !ok {
		t.Fatal("swap app missing")
	}
	// Undownsampled depth 2: every depth-1 parent leads its own children.
	cases = append(cases, sharedCase{"swap/depth2-full", Config{
		Spec:  replay.Spec{Source: swap.Source, Runtime: "tics", TimerMs: 2, Virtualize: true},
		Depth: 2,
	}})
	for _, sc := range Scenarios() {
		cfg := sc.Config
		cfg.Spec.Source = readSeeded(t, sc.File)
		cfg.MaxSchedules = 4 * maxSchedules
		cases = append(cases, sharedCase{"scenario/" + sc.File, cfg})
	}
	return cases
}

// TestSharedPrefixMatchesFresh checks the shared-prefix sweep schedule
// by schedule: every outcome — digest, audit violations, stale sends,
// committed sends, outs, marks, globals, stamps, cycles — deep-equals a
// run of the same schedule from cycle 0 (runner.run, the reference).
// It also holds the saving to its sizing: on the four benchmark
// programs a sweep executes at most half the cycles it explores.
func TestSharedPrefixMatchesFresh(t *testing.T) {
	for _, c := range sharedCases(t) {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Workers = 2
			var compared, mismatched int
			var refCycles int64 // executed by the reference runs themselves
			c.cfg.checkLevel = func(r *runner, scheds []schedule, outs []runOutcome, collectGlobals, collectStamps bool) {
				for i, s := range scheds {
					fresh, err := r.run(s.windows, collectGlobals, collectStamps)
					if err != nil {
						t.Fatal(err)
					}
					compared++
					refCycles += fresh.cycles
					if !reflect.DeepEqual(outs[i], fresh) {
						if mismatched++; mismatched <= 3 {
							t.Errorf("schedule %v: shared outcome\n%+v\nfresh\n%+v", s.windows, outs[i], fresh)
						}
					}
				}
			}
			rep, err := Sweep(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if compared == 0 && rep.Oracle.Fault == "" {
				t.Fatal("no schedules compared")
			}
			// Sharing never executes more than running every schedule
			// from cycle 0; undownsampled depth 2 must save cycles.
			shared := rep.executed - refCycles
			t.Logf("%d schedules, executed %d of %d explored cycles", compared, shared, rep.CyclesExplored)
			if shared > rep.CyclesExplored || (c.name == "swap/depth2-full" && shared*10 > rep.CyclesExplored*9) {
				t.Errorf("executed %d cycles for %d explored", shared, rep.CyclesExplored)
			}
			if mismatched > 0 {
				t.Fatalf("%d of %d schedules diverge from their run from cycle 0", mismatched, compared)
			}
		})
	}
	if raceDetector {
		return
	}
	for _, app := range []string{"ar", "bc", "cf", "ghm"} {
		rep, err := Sweep(Config{Spec: verifySpec(app), Depth: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(rep.executed) / float64(rep.CyclesExplored)
		t.Logf("%s: executed %d of %d explored cycles (%.1f%%)", app, rep.executed, rep.CyclesExplored, 100*ratio)
		if ratio > 0.5 {
			t.Errorf("%s: %s of explored cycles executed, want at most 50%%", app, fmt.Sprintf("%.1f%%", 100*ratio))
		}
	}
}
