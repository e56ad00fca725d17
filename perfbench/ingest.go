package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/gate"
	"repro/internal/replay"
)

// spanHeader carries "batchID/parentSpan" from the client transport to
// the server wrapper in traced runs, so server spans join their batch.
const spanHeader = "X-Perfbench-Span"

// recordingGateway captures a fleet's channel arrivals as fleet.Run
// streams them out wave by wave, and finalizes with an in-process
// fleet.Gateway over the same arrivals: the reference every ingest
// replay must reproduce.
type recordingGateway struct {
	fresh    float64
	arrivals []fleet.Arrival
}

func (r *recordingGateway) IngestWave(a []fleet.Arrival) error {
	r.arrivals = append(r.arrivals, a...)
	return nil
}

func (r *recordingGateway) Finalize() (fleet.RemoteSummary, error) {
	return referenceSummary(r.arrivals, r.fresh), nil
}

// referenceSummary adjudicates arrivals with the in-process gateway.
func referenceSummary(arrivals []fleet.Arrival, fresh float64) fleet.RemoteSummary {
	sorted := append([]fleet.Arrival(nil), arrivals...)
	fleet.SortArrivals(sorted)
	gw := fleet.NewGateway(fresh)
	for _, a := range sorted {
		gw.Accept(a)
	}
	return fleet.RemoteSummary{
		Stats:  gw.Stats(),
		Unique: int64(gw.Unique()),
		P50Ms:  gw.LatencyQuantile(0.50),
		P99Ms:  gw.LatencyQuantile(0.99),
		Digest: gw.Digest(),
	}
}

// countingTransport counts what one gate.Client puts on the wire:
// requests, request body bytes, transport errors and non-2xx responses.
// Each client owns one and uses it from one goroutine at a time. In a
// traced run it also records a span per HTTP attempt and tags the
// request so the server span joins the batch.
type countingTransport struct {
	base http.RoundTripper

	requests, bodyBytes, transportErrs, non2xx int64

	tr     *tracer
	id     int64 // batch the next request belongs to (traced runs)
	parent int32
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.requests++
	if req.ContentLength > 0 {
		c.bodyBytes += req.ContentLength
	}
	sp := c.tr.begin("http.request", c.id, c.parent)
	if c.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", c.id, sp))
	}
	resp, err := c.base.RoundTrip(req)
	c.tr.end(sp)
	if err != nil {
		c.transportErrs++
	} else if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.non2xx++
	}
	return resp, err
}

// tracedHandler wraps the gateway's handler with a server span per
// request, joined to the client's batch through spanHeader.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, parent := int64(-1), int32(-1)
		if idStr, pStr, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			id, _ = strconv.ParseInt(idStr, 10, 64)
			p, _ := strconv.ParseInt(pStr, 10, 32)
			parent = int32(p)
		}
		sp := tr.begin("gate.server", id, parent)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// replayOut is one ingest replay: every batch acked, Finalize verified,
// the store closed and reopened cold.
type replayOut struct {
	ackMs       []float64
	frames      int64
	batches     int64
	seconds     float64 // first batch sent to Finalize returned, unstolen
	finalizeMs  float64
	recoveryMs  float64
	fsyncs      int64
	snapshots   int64
	replayed    int
	diskBytes   int64
	unique      int
	requests    int64
	bodyBytes   int64
	failedCalls int64 // transport errors + non-2xx responses + retries
	summary     fleet.RemoteSummary
	reopenDig   string
	root        int32
	wallS       float64
}

// ingestReplay replays arrivals into a fresh gate.Store behind a
// gate.Server on a loopback listener: clients sources in a closed loop,
// each sending every clients-th batch of batchFrames frames. tr != nil
// records spans (id base idBase).
func ingestReplay(arrivals []fleet.Arrival, fresh float64, batchFrames, clients int, tr *tracer, idBase int64) (out replayOut, err error) {
	wall := time.Now()
	dir, err := os.MkdirTemp(workDir, "gate-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	root := int32(-1)
	// phase opens a child span of the replay's root.
	phase := func(name string) (int32, func()) {
		sp := tr.begin(name, idBase, root)
		return sp, func() { tr.end(sp) }
	}
	root = tr.begin("gate.replay", idBase, -1)
	out.root = root
	defer tr.end(root)

	_, endOpen := phase("gate.open")
	st, err := gate.Open(dir, gate.Options{}) // fsync before every ack, default compaction limit
	endOpen()
	if err != nil {
		return out, err
	}
	defer st.Close()
	var h http.Handler = gate.NewServer(st).Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}

	var batches [][]fleet.Arrival
	for lo := 0; lo < len(arrivals); lo += batchFrames {
		batches = append(batches, arrivals[lo:min(lo+batchFrames, len(arrivals))])
	}
	transports := make([]*countingTransport, clients)
	cls := make([]*gate.Client, clients)
	for c := range cls {
		transports[c] = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}, tr: tr}
		cls[c] = gate.NewClient("http://"+ln.Addr().String(), fresh)
		cls[c].Source = fmt.Sprintf("perfbench-%d", c)
		cls[c].HTTP = &http.Client{Transport: transports[c], Timeout: gate.DefaultRequestTimeout}
		cls[c].RetryBudget = 5 * time.Second
	}
	acks := make([][]float64, clients)
	errs := make([]error, clients)
	sw := startWatch()
	load, endLoad := phase("gate.load")
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ct := transports[c]
			for k := c; k < len(batches); k += clients {
				t := time.Now()
				ct.id = idBase + int64(k)
				sp := tr.begin("gate.ingest_wave", ct.id, load)
				ct.parent = sp
				err := cls[c].IngestWave(batches[k])
				tr.end(sp)
				acks[c] = append(acks[c], float64(time.Since(t).Nanoseconds())/1e6)
				if err != nil {
					errs[c] = fmt.Errorf("batch %d: %w", k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	endLoad()
	if err := errors.Join(errs...); err != nil {
		shutdown()
		return out, err
	}
	fin, endFin := phase("gate.finalize")
	t := time.Now()
	transports[0].id, transports[0].parent = idBase+int64(len(batches)), fin
	out.summary, err = cls[0].Finalize()
	out.finalizeMs = float64(time.Since(t).Nanoseconds()) / 1e6
	out.seconds = sw.unstolen()
	endFin()
	if err != nil {
		shutdown()
		return out, err
	}

	_, endClose := phase("gate.close")
	err = shutdown()
	for _, ct := range transports {
		ct.base.(*http.Transport).CloseIdleConnections()
		out.requests += ct.requests
		out.bodyBytes += ct.bodyBytes
		out.failedCalls += ct.transportErrs + ct.non2xx
	}
	// Every request beyond one per batch and one Finalize is a retry.
	out.failedCalls += out.requests - int64(len(batches)) - 1
	out.fsyncs, out.snapshots = st.Fsyncs(), st.Snapshots()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	endClose()
	if err != nil {
		return out, err
	}
	if out.diskBytes, err = dirBytes(dir); err != nil {
		return out, err
	}

	_, endReopen := phase("gate.reopen")
	t = time.Now()
	st2, err := gate.Open(dir, gate.Options{})
	out.recoveryMs = float64(time.Since(t).Nanoseconds()) / 1e6
	endReopen()
	if err != nil {
		return out, err
	}
	out.reopenDig = st2.Digest()
	out.replayed = st2.Recovery().ReplayedFrames
	out.unique = st2.Unique()
	if err := st2.Close(); err != nil {
		return out, err
	}

	for _, a := range acks {
		out.ackMs = append(out.ackMs, a...)
	}
	out.frames = int64(len(arrivals))
	out.batches = int64(len(batches))
	out.wallS = time.Since(wall).Seconds()
	return out, nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// checkReplay compares a replay's Finalize summary and reopened digest
// with the in-process reference.
func checkReplay(ref fleet.RemoteSummary, out replayOut) error {
	if out.summary != ref {
		return fmt.Errorf("Finalize summary %+v, in-process gateway %+v", out.summary, ref)
	}
	if out.reopenDig != ref.Digest {
		return fmt.Errorf("digest after reopen %s, in-process gateway %s", out.reopenDig, ref.Digest)
	}
	return nil
}

// captureArrivals runs the fleet once with a recording remote gateway.
func captureArrivals(cfg fleet.Config) (*recordingGateway, error) {
	rg := &recordingGateway{fresh: cfg.FreshnessMs}
	cfg.Remote = rg
	if _, err := fleet.Run(cfg); err != nil {
		return nil, err
	}
	return rg, nil
}

// checkCapture compares the in-process gateway over the captured
// arrivals with an ordinary fleet.Run of the same configuration, which
// delivers to its own gateway.
func checkCapture(cfg fleet.Config, ref fleet.RemoteSummary) error {
	rep, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	if rep.Digest != ref.Digest || rep.Gateway != ref.Stats || rep.LatencyP50 != ref.P50Ms || rep.LatencyP99 != ref.P99Ms {
		return fmt.Errorf("captured arrivals give digest %.12s… %+v p50/p99 %g/%g ms, fleet.Run %.12s… %+v %g/%g ms",
			ref.Digest, ref.Stats, ref.P50Ms, ref.P99Ms, rep.Digest, rep.Gateway, rep.LatencyP50, rep.LatencyP99)
	}
	return nil
}

// runIngest drives the ingest workload.
func runIngest(b *bench) error {
	cfg := fleetConfig(b.p.IngestDevices, b.seed, b.workers, false)
	clients := min(2, b.workers)
	fmt.Fprintf(b.log, "ingest: arrivals of a %d-device ghm fleet, %d-frame batches, %d closed-loop gate.Client sources over loopback HTTP\n",
		cfg.Devices, b.p.BatchFrames, clients)
	fmt.Fprintf(b.log, "ingest: flush policy: WAL fsync before every ack; snapshot compaction past %d bytes (gate.DefaultCompactLimit)\n", gate.DefaultCompactLimit)

	// Set-up, repeated: build the image, capture the arrivals, open a
	// store and warm the HTTP path with a short replay.
	var captured []fleet.Arrival
	var setup []float64
	for i := 0; i < b.p.SetupReps; i++ {
		w := startWatch()
		sp := b.tr.begin("build.image", int64(i), -1)
		_, _, err := replay.BuildImage(cfg.DeviceSpec(0))
		b.tr.end(sp)
		if err != nil {
			return err
		}
		rg, err := captureArrivals(cfg)
		if err != nil {
			return err
		}
		if captured == nil {
			captured = rg.arrivals
		} else if !slices.Equal(captured, rg.arrivals) {
			b.mismatch("set-up %d captured different arrivals from the same seed", i)
		}
		warm := captured[:min(len(captured), 64*b.p.BatchFrames)]
		if _, err := ingestReplay(warm, cfg.FreshnessMs, b.p.BatchFrames, clients, nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, b.setupRef(w.unstolen()))
	}
	b.setupS = median(setup)
	ref := referenceSummary(captured, cfg.FreshnessMs)
	if err := checkCapture(cfg, ref); err != nil {
		b.mismatch("%v", err)
	}
	fmt.Fprintf(b.log, "ingest: %d arrivals; reference digest %.12s… delivered %d duplicates %d\n",
		len(captured), ref.Digest, ref.Stats.Delivered, ref.Stats.Duplicates)

	if b.trace {
		return traceIngest(b, cfg, captured, ref, clients)
	}
	var acks, peaks []float64
	var frames int64
	var seconds float64
	start := time.Now()
	for i := 0; !b.deadline(start, i); i++ {
		startRound()
		out, err := ingestReplay(captured, cfg.FreshnessMs, b.p.BatchFrames, clients, nil, 0)
		if err != nil {
			return err
		}
		peaks = append(peaks, peakRSSMB())
		b.calibrate()
		if err := checkReplay(ref, out); err != nil {
			b.mismatch("replay %d: %v", i, err)
		}
		b.attempted += out.batches
		b.failed += out.failedCalls
		acks = append(acks, out.ackMs...)
		frames += out.frames
		seconds += out.seconds
	}
	fmt.Fprintf(b.log, "ingest: throughput_per_s = acked frames per reference second up to a verified Finalize; IngestWave round trip p50 %.4g ms, p99 %.4g ms (%d samples)\n",
		median(acks), quantile(acks, 0.99), len(acks))
	b.setEndToEnd(float64(frames)/seconds, b.setupS, median(peaks))
	return nil
}

// traceIngest re-captures the arrivals through the traced fleet replica
// (they must equal fleet.Run's), then prices the gate layer.
func traceIngest(b *bench, cfg fleet.Config, captured []fleet.Arrival, ref fleet.RemoteSummary, clients int) error {
	rs, arr, _, _, err := replicaRound(cfg, b.tr, false, -1)
	if err != nil {
		return err
	}
	if !slices.Equal(arr, captured) {
		b.mismatch("traced replica arrivals differ from fleet.Run's")
	}
	if rs.Digest != ref.Digest {
		b.mismatch("traced replica digest %s, reference %s", rs.Digest, ref.Digest)
	}
	setVMMetrics(b, rs, 1)
	setFleetCounts(b, rs)
	b.set("fleet.channel_s", b.tr.total("fleet.transmit"))
	b.set("fleet.gateway_s", b.tr.total("fleet.sort_arrivals")+b.tr.total("fleet.accept"))
	traced, untraced, root, err := traceGate(b, captured, ref, cfg.FreshnessMs, clients, b.seconds)
	if err != nil {
		return err
	}
	setTraceMetrics(b, median(traced), median(untraced), root)
	return nil
}

// traceGate alternates untraced and traced replays of arrivals for
// seconds (at least p.MinRounds pairs), checks each against ref, and
// sets the gate layer metrics. It returns the traced and untraced replay
// walls and the last traced replay's root span.
func traceGate(b *bench, arrivals []fleet.Arrival, ref fleet.RemoteSummary, fresh float64, clients int, seconds float64) (traced, untraced []float64, lastRoot int32, err error) {
	var (
		acks, recovery, finalize                     []float64
		fsyncsPerBatch, bytesPerFrame, diskPerUnique []float64
		snapshots, replayed                          int
	)
	start := time.Now()
	for i := 0; i < b.p.MinRounds || time.Since(start).Seconds() < seconds; i++ {
		u, err := ingestReplay(arrivals, fresh, b.p.BatchFrames, clients, nil, 0)
		if err != nil {
			return nil, nil, 0, err
		}
		t, err := ingestReplay(arrivals, fresh, b.p.BatchFrames, clients, b.tr, int64(i+1)<<32)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, out := range []replayOut{u, t} {
			if err := checkReplay(ref, out); err != nil {
				b.mismatch("replay %d: %v", i, err)
			}
			b.attempted += out.batches
			b.failed += out.failedCalls
		}
		acks = append(acks, u.ackMs...)
		recovery = append(recovery, u.recoveryMs)
		finalize = append(finalize, t.finalizeMs)
		untraced = append(untraced, u.wallS)
		traced = append(traced, t.wallS)
		fsyncsPerBatch = append(fsyncsPerBatch, float64(u.fsyncs)/float64(u.batches))
		bytesPerFrame = append(bytesPerFrame, float64(u.bodyBytes)/float64(u.frames))
		diskPerUnique = append(diskPerUnique, float64(u.diskBytes)/float64(u.unique))
		snapshots, replayed = int(u.snapshots), u.replayed
		lastRoot = t.root
	}

	// Server time per request, and the client's wait beyond it.
	server := map[int64]float64{}
	var serverMs []float64
	for _, s := range b.tr.spans {
		if s.Name == "gate.server" && s.End >= 0 {
			d := float64(s.End-s.Start) / 1e6
			server[s.ID] += d
			serverMs = append(serverMs, d)
		}
	}
	var waitMs []float64
	for _, s := range b.tr.spans {
		if s.Name == "gate.ingest_wave" && s.End >= 0 {
			waitMs = append(waitMs, float64(s.End-s.Start)/1e6-server[s.ID])
		}
	}
	b.set("gate.server_ms_p50", quantile(serverMs, 0.50))
	b.set("gate.server_ms_p99", quantile(serverMs, 0.99))
	b.set("gate.wait_ms_p99", quantile(waitMs, 0.99))
	b.set("gate.ack_p50_ms", median(acks))
	b.set("gate.ack_p99_ms", quantile(acks, 0.99))
	b.set("gate.recovery_ms", median(recovery))
	b.set("gate.finalize_ms", median(finalize))
	b.set("gate.fsyncs_per_batch", median(fsyncsPerBatch))
	b.set("gate.request_bytes_per_frame", median(bytesPerFrame))
	b.set("gate.snapshots", float64(snapshots))
	b.set("gate.replayed_frames", float64(replayed))
	b.set("gate.disk_bytes_per_unique", median(diskPerUnique))
	fmt.Fprintf(b.log, "gate: %d arrivals in %d-frame batches from %d sources; %d ack samples (untraced replays), %d server spans\n",
		len(arrivals), b.p.BatchFrames, clients, len(acks), len(serverMs))
	return traced, untraced, lastRoot, nil
}
