package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fmtDigest is DigestOf's reference rendering: the fmt formulation the
// committed digests were produced with.
func fmtDigest(log []Delivery) string {
	h := sha256.New()
	for _, d := range log {
		fmt.Fprintf(h, "%d %d %d %.6f %.6f\n", d.Dev, d.Seq, d.Value, d.SentMs, d.ArriveMs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCorpus is random deliveries plus the values where a hand-rolled
// float rendering could part from fmt's: signed zero, infinities, NaN,
// huge magnitudes, rounding ties at the sixth decimal and extreme ints.
func digestCorpus(n int) []Delivery {
	rng := rand.New(rand.NewSource(7))
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e300, -1e300, 5e-7, -5e-7, 4.9999995e-7, 1.0000005, 2.5e-6, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -123.4567895}
	var log []Delivery
	for _, s := range edges {
		for _, a := range edges {
			log = append(log, Delivery{Dev: -1, Seq: math.MinInt64, Value: math.MinInt32, SentMs: s, ArriveMs: a})
		}
	}
	log = append(log, Delivery{Dev: math.MaxInt, Seq: math.MaxInt64, Value: math.MaxInt32})
	for i := 0; i < n; i++ {
		log = append(log, Delivery{
			Dev:      rng.Intn(1 << 20),
			Seq:      rng.Int63n(1 << 40),
			Value:    rng.Int31() - 1<<30,
			SentMs:   rng.Float64() * math.Pow(10, float64(rng.Intn(12)-3)),
			ArriveMs: -rng.NormFloat64() * 1e4,
		})
	}
	return log
}

func TestDigestOfMatchesFmt(t *testing.T) {
	log := digestCorpus(20_000)
	if got, want := DigestOf(log), fmtDigest(log); got != want {
		t.Fatalf("DigestOf %s, fmt rendering %s", got, want)
	}
	for i, d := range log[:300] {
		one := []Delivery{d}
		if got, want := DigestOf(one), fmtDigest(one); got != want {
			t.Fatalf("delivery %d %+v: DigestOf %s, fmt rendering %s", i, d, got, want)
		}
	}
}

var digestSink string

func BenchmarkDigestOf(b *testing.B) {
	log := digestCorpus(100_000)
	for _, c := range []struct {
		name string
		fn   func([]Delivery) string
	}{{"strconv", DigestOf}, {"fmt", fmtDigest}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				digestSink = c.fn(log)
			}
		})
	}
}
