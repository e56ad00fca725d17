package obs

import (
	"reflect"
	"strings"
	"testing"
)

// countSink counts the events it sees.
type countSink struct{ n *int }

func (s countSink) OnEvent(int64, Event) { *s.n++ }

// program drives a recorder through one synthetic run: function table,
// events of every metric-bearing kind (ring overflow included), category
// pushes, nested calls, a power failure, and a checkpoint left open.
type program struct {
	funcs    []string
	events   int   // send events emitted around the run's body
	spend    int64 // cycle unit
	failAt   int64
	openCp   bool
	deepCall bool
	noFinish bool // leave attribution pending, as a mid-run snapshot does
	// strayCommit emits a commit with no begin first; it only prices a
	// latency if a begin is (wrongly) still open.
	strayCommit bool
}

func (p program) run(r *Recorder) {
	r.SetFunctions(p.funcs)
	r.Emit(Event{Kind: EvBoot, Arg0: 1})
	if p.strayCommit {
		r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 3})
	}
	r.ResetStack(-1)
	r.EnterFunc(0)
	r.OnSpend(p.spend)
	for i := 0; i < p.events; i++ {
		r.Emit(Event{Kind: EvSend, Cycles: int64(i), Arg0: int64(i)})
		r.Emit(Event{Kind: EvUndoAppend, Cycles: int64(i)})
	}
	r.EnterFunc(1)
	if p.deepCall {
		r.EnterFunc(2)
		r.OnSpend(3 * p.spend)
		r.LeaveFunc()
	}
	r.PushCategory(CatCheckpoint)
	r.Emit(Event{Kind: EvCheckpointBegin, Cycles: 100, Arg1: 96})
	r.OnSpend(2 * p.spend)
	r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 100 + p.spend})
	r.PopCategory()
	r.OnCommit()
	r.PushCategory(CatUndoLog)
	r.OnSpend(p.spend + 7)
	r.Emit(Event{Kind: EvPowerFail, Cycles: p.failAt})
	r.OnPowerFail()
	r.Emit(Event{Kind: EvUndoRollback, Arg0: 3})
	r.PushCategory(CatRestore)
	r.OnSpend(5)
	r.PopCategory()
	r.Emit(Event{Kind: EvRestore})
	r.ResetStack(1)
	r.OnSpend(p.spend)
	r.LeaveFunc()
	r.LeaveFunc()
	r.Metrics().Observe("undo_len_per_epoch", float64(p.events))
	if p.openCp {
		r.Emit(Event{Kind: EvCheckpointBegin, Cycles: 900, Arg1: 32})
		r.PushCategory(CatCheckpoint)
		r.OnSpend(11)
	}
	if !p.noFinish {
		r.Finish()
	}
}

func dumpOf(r *Recorder) (string, string) {
	var d, p strings.Builder
	r.Metrics().Dump(&d)
	if err := r.Metrics().WritePrometheus(&p); err != nil {
		panic(err)
	}
	return d.String(), p.String()
}

// TestRecorderResetMatchesFresh: a recorder that ran program A and was
// Reset, then ran program B, is indistinguishable from a fresh recorder
// that ran only B — events, drops, metric dumps and profile — while its
// sinks are gone and counter pointers cached before the Reset still count.
func TestRecorderResetMatchesFresh(t *testing.T) {
	a := program{funcs: []string{"main", "a", "a2"}, events: 40, spend: 50, failAt: 7000,
		openCp: true, deepCall: true, noFinish: true}
	b := program{funcs: []string{"main", "b"}, events: 5, spend: 13, failAt: 300, strayCommit: true}
	opts := Options{RingCap: 16, Profile: true}

	reused := NewRecorder(opts)
	var seen int
	reused.AddSink(countSink{&seen})
	sends := reused.Metrics().CounterRef("sends")
	lat := reused.Metrics().Histogram("checkpoint_latency_cycles")
	a.run(reused)
	if reused.Dropped() == 0 || seen == 0 {
		t.Fatal("program A must overflow the ring and feed the sink")
	}
	seenA := seen
	reused.Reset()
	b.run(reused)

	fresh := NewRecorder(opts)
	b.run(fresh)

	if seen != seenA {
		t.Fatalf("sink saw %d events after Reset", seen-seenA)
	}
	if !reflect.DeepEqual(reused.Events(), fresh.Events()) {
		t.Fatalf("events diverge:\n%v\n%v", reused.Events(), fresh.Events())
	}
	if reused.Dropped() != fresh.Dropped() || reused.Seq() != fresh.Seq() || reused.RingCap() != fresh.RingCap() {
		t.Fatalf("dropped/seq/cap %d/%d/%d vs %d/%d/%d", reused.Dropped(), reused.Seq(), reused.RingCap(),
			fresh.Dropped(), fresh.Seq(), fresh.RingCap())
	}
	rd, rp := dumpOf(reused)
	fd, fp := dumpOf(fresh)
	if rd != fd {
		t.Fatalf("dump diverges:\n%s\nvs\n%s", rd, fd)
	}
	if rp != fp {
		t.Fatalf("prometheus diverges:\n%s\nvs\n%s", rp, fp)
	}
	if !reflect.DeepEqual(reused.Profile(), fresh.Profile()) {
		t.Fatalf("profile diverges:\n%+v\n%+v", reused.Profile(), fresh.Profile())
	}
	if *sends != int64(b.events) || *sends != fresh.Metrics().Counter("sends") {
		t.Fatalf("cached counter reads %d, want %d", *sends, b.events)
	}
	if lat != reused.Metrics().Histogram("checkpoint_latency_cycles") || lat.Count != 1 {
		t.Fatalf("cached histogram lost: count %d", lat.Count)
	}
}

// TestProfileFoldMatchesMergeProfiles: folding recorders' tries node by
// node renders the same profile as merging their rendered profiles, and
// merging folds is the same as folding everything into one.
func TestProfileFoldMatchesMergeProfiles(t *testing.T) {
	funcs := []string{"main", "a", "a2"}
	progs := []program{
		{funcs: funcs, events: 3, spend: 10, failAt: 50, deepCall: true},
		{funcs: funcs, events: 1, spend: 7, failAt: 90},
		{funcs: funcs, events: 8, spend: 21, failAt: 400, openCp: true},
		{funcs: funcs, events: 0, spend: 2, failAt: 10, deepCall: true, openCp: true, noFinish: true},
	}
	all := NewProfileFold()
	halves := [2]*ProfileFold{NewProfileFold(), NewProfileFold()}
	var profiles []Profile
	rec := NewRecorder(Options{Profile: true})
	for i, p := range progs {
		rec.Reset()
		p.run(rec)
		profiles = append(profiles, rec.Profile())
		all.Add(rec)
		halves[i%2].Add(rec)
	}
	want := MergeProfiles(profiles...)
	if got := all.Profile(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fold diverges from MergeProfiles:\n%+v\n%+v", got, want)
	}
	merged := NewProfileFold()
	merged.Merge(halves[1])
	merged.Merge(halves[0])
	if got := merged.Profile(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged folds diverge:\n%+v\n%+v", got, want)
	}
	if want.Folded["(device);main;a;a2"] == 0 {
		t.Fatalf("deep stack missing from %v", want.Folded)
	}
}
