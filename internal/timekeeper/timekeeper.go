// Package timekeeper models persistent time sources that survive power
// failures. The paper's TICS requires a remanence-based timer or a
// capacitor-backed RTC so that the runtime can update shadow timestamps
// and evaluate @expires/@timely conditions across outages; the error the
// keeper makes while the device is off is the interesting property, and
// it is pluggable here.
//
// Powered time is always accurate (the MCU's own timer runs while
// powered), so the VM adds each instruction's on-time straight into the
// keeper's running estimate; the keeper models only off-time, which the
// VM reports with the outage's true length. Now() answers with the
// keeper's *estimate* of elapsed milliseconds.
package timekeeper

// Keeper is a persistent clock.
type Keeper interface {
	// Name identifies the keeper in experiment reports.
	Name() string
	// Now returns the keeper's current estimate of elapsed time in ms.
	Now() int64
	// Estimate returns the keeper's running estimate of elapsed ms. The
	// machine takes it once per run and adds every powered millisecond
	// into it; the pointer stays valid across Reset and CopyState.
	Estimate() *float64
	// AdvanceOff accounts for a power outage of truly ms milliseconds; the
	// keeper may estimate it with error.
	AdvanceOff(ms float64)
	// Reset rewinds the keeper to time zero.
	Reset()
	// CopyState overwrites the keeper's running estimate (and any error
	// model state) with src's, reporting false, and changing nothing,
	// when src is a different kind of keeper. Resuming a run from a copy
	// of a paused one relies on it.
	CopyState(src Keeper) bool
}

// Perfect is an ideal persistent clock (an external RTC with unlimited
// backup). It is the oracle against which error models are compared.
type Perfect struct{ est float64 }

func (p *Perfect) Name() string          { return "perfect" }
func (p *Perfect) Now() int64            { return int64(p.est) }
func (p *Perfect) Estimate() *float64    { return &p.est }
func (p *Perfect) AdvanceOff(ms float64) { p.est += ms }
func (p *Perfect) Reset()                { p.est = 0 }

func (p *Perfect) CopyState(src Keeper) bool {
	s, ok := src.(*Perfect)
	if ok {
		p.est = s.est
	}
	return ok
}

// RTC is a capacitor-backed real-time clock with a coarse tick: off-times
// are measured but quantized to ResolutionMs (e.g. a 1/32768 Hz prescaler
// chain read at 10 ms granularity).
type RTC struct {
	ResolutionMs float64
	est          float64
}

func (r *RTC) Name() string       { return "rtc" }
func (r *RTC) Now() int64         { return int64(r.est) }
func (r *RTC) Estimate() *float64 { return &r.est }
func (r *RTC) AdvanceOff(ms float64) {
	res := r.ResolutionMs
	if res <= 0 {
		res = 1
	}
	ticks := float64(int64(ms / res))
	r.est += ticks * res
}
func (r *RTC) Reset() { r.est = 0 }

func (r *RTC) CopyState(src Keeper) bool {
	s, ok := src.(*RTC)
	if ok {
		r.est = s.est
	}
	return ok
}

// Remanence models a TARDIS/CusTARD-style remanence-decay timer: the
// off-time estimate carries a bounded multiplicative error that varies
// deterministically per outage, and saturates at MaxOffMs (once the decay
// completes, longer outages are indistinguishable — the keeper can only
// report "at least MaxOffMs").
type Remanence struct {
	ErrFrac  float64 // maximum fractional error per outage, e.g. 0.1
	MaxOffMs float64 // decay horizon; longer outages saturate
	Seed     uint64
	est      float64
	rng      uint64
}

// NewRemanence builds a remanence keeper with the given error fraction and
// decay horizon.
func NewRemanence(errFrac, maxOffMs float64, seed uint64) *Remanence {
	return &Remanence{ErrFrac: errFrac, MaxOffMs: maxOffMs, Seed: seed, rng: seed | 1}
}

func (t *Remanence) Name() string       { return "remanence" }
func (t *Remanence) Now() int64         { return int64(t.est) }
func (t *Remanence) Estimate() *float64 { return &t.est }

func (t *Remanence) AdvanceOff(ms float64) {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	u := float64(t.rng%2001)/1000.0 - 1 // [-1, 1]
	obs := ms
	if t.MaxOffMs > 0 && obs > t.MaxOffMs {
		obs = t.MaxOffMs
	}
	obs *= 1 + t.ErrFrac*u
	if obs < 0 {
		obs = 0
	}
	t.est += obs
}

func (t *Remanence) Reset() {
	t.est = 0
	t.rng = t.Seed | 1
}

func (t *Remanence) CopyState(src Keeper) bool {
	s, ok := src.(*Remanence)
	if ok {
		t.est, t.rng = s.est, s.rng
	}
	return ok
}
