// Command perfbench is the repository benchmark: it drives the public
// surfaces of the fleet simulator (internal/fleet), the durable gateway
// (internal/gate) and the reset-point model checker (internal/mc) on one
// of four workloads, checks every output against an independent
// reference, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around calls into each layer and prints the
// per-layer metrics instead. A failed correctness check still prints the
// result (correct=false) and exits 1. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// workDir holds the gateway stores and span files, relative to the
// directory the benchmark runs in.
const workDir = ".bench_build"

// params sizes the workloads. defaultParams is what the benchmark runs;
// the self-test shrinks it.
type params struct {
	FleetDevices     int     // devices per fleet round
	TelemetryDevices int     // devices per fleet-telemetry round
	IngestDevices    int     // fleet whose channel arrivals ingest replays
	BatchFrames      int     // frames per ingest batch
	VerifyWallMs     float64 // per-run wall budget of the swept programs
	SetupReps        int     // set-ups per run; setup_s is their median
	MinRounds        int     // measured rounds per run, however short --seconds is
	CalibSteps       int     // reference-kernel steps per worker at each calibration (calib.go)
}

var defaultParams = params{
	FleetDevices:     20000,
	TelemetryDevices: 10000,
	IngestDevices:    50000,
	BatchFrames:      16,
	VerifyWallMs:     200,
	SetupReps:        7,
	MinRounds:        2,
	CalibSteps:       50_000_000,
}

// bench is one benchmark run: its settings and what it measured.
type bench struct {
	p       params
	seed    uint64
	seconds float64
	trace   bool
	workers int
	log     io.Writer // human-readable report lines

	tr      *tracer
	metrics map[string]float64

	setupS      float64   // median set-up, reference seconds
	kernelRates []float64 // reference kernel next to each measured round (calib.go)

	attempted, failed int64
	mismatches        []string
}

// mismatch records a failed correctness check.
func (b *bench) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mismatches = append(b.mismatches, msg)
	fmt.Fprintln(b.log, "CHECK FAILED:", msg)
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// deadline reports whether a measurement loop that started at start and
// has completed rounds rounds should stop.
func (b *bench) deadline(start time.Time, rounds int) bool {
	return rounds >= b.p.MinRounds && time.Since(start).Seconds() >= b.seconds
}

var workloads = map[string]func(*bench) error{
	"fleet":           func(b *bench) error { return runFleet(b, false) },
	"fleet-telemetry": func(b *bench) error { return runFleet(b, true) },
	"ingest":          runIngest,
	"verify":          runVerify,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fleet | fleet-telemetry | ingest | verify")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := newBench(defaultParams, *seed, *seconds, *trace == 1, os.Stdout)
	fmt.Fprintf(b.log, "workload %s seed %d seconds %g trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintln(b.log, "host:", hostFingerprint(workDir))
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if b.tr != nil {
		b.tr.writeSelfTable(b.log)
		path := filepath.Join(workDir, "spans-"+*workload+".jsonl")
		if err := writeSpans(b.tr, path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(b.log, "spans: %d written to %s\n", len(b.tr.spans), path)
	}
	res := b.result()
	printResult(b.log, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func newBench(p params, seed uint64, seconds float64, trace bool, log io.Writer) *bench {
	b := &bench{
		p: p, seed: seed, seconds: seconds, trace: trace,
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		log:     log,
		metrics: map[string]float64{},
	}
	if trace {
		b.tr = newTracer()
	}
	return b
}

// result assembles the printed metric set: every metric of the run's
// kind, layers the workload did not exercise reading 0.
func (b *bench) result() result {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(b.mismatches) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricOut{Value: b.metrics[d.Name], Unit: d.Unit}
	}
	return res
}

func printResult(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, _ := json.Marshal(res) // plain structs of floats and strings always marshal
	fmt.Fprintln(w, string(line))
}

func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// startRound puts every measured round on an equal footing: the heap
// is collected, so no round pays for the previous one's garbage, and
// the RSS high-water mark is reset (where the kernel allows), so
// peakRSSMB after the round is the round's own peak.
func startRound() {
	runtime.GC()
	obs.ResetPeakRSS()
}

// peakRSSMB is the process's resident-set high-water mark in MB (VmHWM),
// or the Go runtime's heap+stack reservation where procfs is absent.
func peakRSSMB() float64 {
	s := obs.SampleResources()
	if s.PeakRSSBytes > 0 {
		return float64(s.PeakRSSBytes) / 1e6
	}
	return float64(s.HeapSysBytes) / 1e6
}

// hostFingerprint identifies the measuring host: CPU model, CPU count,
// GOMAXPROCS, Go version and the filesystem the gateway store lives on.
func hostFingerprint(storeDir string) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s store_fs=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(storeDir))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir: the type of the longest
// mount point in /proc/self/mountinfo that contains it, else the statfs
// magic number.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	best, bestType := "", ""
	if f, err := os.Open("/proc/self/mountinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			// id parent major:minor root mountpoint opts... - fstype source superopts
			pre, post, ok := strings.Cut(sc.Text(), " - ")
			fields, tail := strings.Fields(pre), strings.Fields(post)
			if !ok || len(fields) < 5 || len(tail) < 1 {
				continue
			}
			mp := fields[4]
			if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
				best, bestType = mp, tail[0]
			}
		}
		f.Close()
	}
	if bestType != "" {
		return bestType
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("magic-0x%x", st.Type)
}
