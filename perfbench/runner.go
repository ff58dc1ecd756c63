package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"dynq"
	"dynq/internal/obs"
	"dynq/internal/stats"
	"dynq/netq"
)

// runWorkload sets the workload up, drives it, checks it and reports.
func runWorkload(cfg config, w spec, out string) (*report, error) {
	rep := &report{Provenance: newProvenance(cfg)}
	rep.Provenance.SetupReps = setupReps
	pool, err := makeSessions(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(out, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)
	rg, setupSecs, err := timedSetUps(w, cfg.seed, dataDir, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	defer rg.close()

	nObs := w.observerCount()
	observersList := make([]*observer, nObs)
	for i := range observersList {
		observersList[i] = &observer{idx: i, cl: rg.clients[i], w: w, pool: pool}
	}
	var gen *generator
	if w.ingest() {
		state := &streamState{}
		state.frontier.Store(math.Float64bits(rg.stream[0].Segment.T0))
		gen = &generator{cl: rg.clients[nObs], stream: rg.stream, state: state}
		for _, o := range observersList {
			o.stream = state
		}
	}
	epoch := time.Now()
	total := time.Duration(cfg.seconds * float64(time.Second))

	// Warm-up: fill the buffer pool and settle the runtime before timing.
	warm := min(2*time.Second, total/5)
	runPhase(epoch, observersList, gen, warm, false, false)
	runtime.GC()

	var untraced *phaseRun
	measuredFor := total
	if cfg.trace {
		// Half untraced, half traced: the difference is the tracing overhead.
		measuredFor = total / 2
		untraced = runPhase(epoch, observersList, gen, measuredFor, false, true)
	}
	before := snapshotLayers(rg)
	batchStart := 0
	if gen != nil {
		batchStart = gen.batches
	}
	heap := startHeapSampler()
	measured := runPhase(epoch, observersList, gen, measuredFor, cfg.trace, !cfg.trace)
	heapPeak := heap.stop()
	after := snapshotLayers(rg)

	attempted, failed := int64(0), int64(0)
	for _, pr := range []*phaseRun{untraced, measured} {
		if pr == nil {
			continue
		}
		_, a, f := pr.frames()
		attempted += a
		failed += f
		if err := pr.firstErr(); err != nil {
			rep.problem("%v", err)
		}
	}

	// Correctness, outside the timed phases.
	checked := measured
	if cfg.trace {
		checked = untraced
	}
	a, f := checkRun(rep, w, cfg.seed, rg, pool, observersList, gen, checked)
	attempted += a
	failed += f
	rep.Attempted, rep.Failed = attempted, failed
	rep.Correct = failed == 0 && len(rep.Problems) == 0

	genLate, behind := generatorLateness(rep, measured, untraced)
	if !cfg.trace {
		endToEnd(rep, w, setupSecs, measured, heapPeak)
		return rep, nil
	}
	if err := perLayer(rep, cfg, w, out, rg, pool, measured, untraced, before, after,
		batchStart, genLate, behind); err != nil {
		return nil, err
	}
	return rep, nil
}

// endToEnd reports the user-visible metrics of the measured phase. Rates,
// the frame tails and the ingest acknowledgement median are medians over
// the phase's one-second slices, so seconds disturbed by something outside
// the program move them little as long as they are under half. The
// frame p99 and the acknowledgement tails go to the report but not the
// result line: on a small shared VM they spread across runs by more than any
// bound the benchmark may set.
func endToEnd(rep *report, w spec, setupSecs []float64, pr *phaseRun, heapPeak float64) {
	var frameMS []float64
	var slices [][]float64 // frame round trips (ms) by second of completion
	for _, r := range pr.obs {
		for i, ns := range r.frameNS {
			ms := float64(ns) / 1e6
			frameMS = append(frameMS, ms)
			slices = addToSlice(slices, r.frameEnds[i], ms)
		}
	}
	slices = fullSlices(slices, pr.elapsed)
	rates := make([]float64, len(slices))
	p90s := make([]float64, len(slices))
	p99s := make([]float64, len(slices))
	for i, sl := range slices {
		rates[i] = float64(len(sl))
		p90s[i] = percentile(sl, 90)
		p99s[i] = percentile(sl, 99)
	}
	rep.add("setup_s", "s", median(setupSecs), setupSecs, "")
	rep.add("frames_per_s", "1/s", median(rates), rates, "")
	rep.add("frame_p50_ms", "ms", percentile(frameMS, 50), frameMS, "")
	rep.add("frame_p90_ms", "ms", median(p90s), p90s, "")
	rep.info("frame_p99_ms", "ms", median(p99s), p99s)
	if w.ingest() && pr.gen != nil {
		// The generator is open loop: its acknowledged rate is the whole
		// phase's count over its length, which falls below the scheduled
		// rate only when the engine builds a backlog.
		ackMS := durationsMS(pr.gen.ackNS)
		var ackSlices [][]float64 // batch acknowledgement latencies by second of acknowledgement
		for i, ms := range ackMS {
			ackSlices = addToSlice(ackSlices, pr.gen.ackEnds[i], ms)
		}
		ackSlices = fullSlices(ackSlices, pr.elapsed)
		p50s := make([]float64, len(ackSlices))
		for i, sl := range ackSlices {
			p50s[i] = percentile(sl, 50)
		}
		rep.add("ack_p50_ms", "ms", median(p50s), p50s, "")
		rep.info("ack_p90_ms", "ms", percentile(ackMS, 90), ackMS)
		rep.info("ack_p99_ms", "ms", percentile(ackMS, 99), ackMS)
		rep.add("acked_per_s", "1/s", float64(pr.gen.updates)/pr.elapsed.Seconds(), nil, "")
	} else {
		rep.add("ack_p50_ms", "ms", percentile(frameMS, 50), frameMS, "")
		rep.add("acked_per_s", "1/s", median(rates), rates, "")
	}
	rep.add("heap_peak_mb", "MB", heapPeak, nil, "")
	rep.info("failed_frac", "ratio", safeDiv(float64(rep.Failed), float64(rep.Attempted)), nil)
}

// addToSlice files v under the one-second slice its completion time (ns
// since the phase start) falls in.
func addToSlice(slices [][]float64, endNS int64, v float64) [][]float64 {
	i := int(endNS / int64(time.Second))
	for len(slices) <= i {
		slices = append(slices, nil)
	}
	slices[i] = append(slices[i], v)
	return slices
}

// fullSlices drops the trailing partial second (and anything after it).
func fullSlices(slices [][]float64, elapsed time.Duration) [][]float64 {
	n := int(elapsed / time.Second)
	for len(slices) < n {
		slices = append(slices, nil)
	}
	return slices[:n]
}

// generatorLateness reports how late the open-loop generator sent its
// batches and flags a run whose generator fell behind: batches due in a
// phase were never sent, the stream ran out, or fewer than 95% of the
// scheduled updates were acknowledged. A late batch on its own is not a
// backlog; its wait is already in the ack_* latencies, which time each
// batch from when it was due.
func generatorLateness(rep *report, runs ...*phaseRun) (late []float64, behind bool) {
	for _, pr := range runs {
		if pr == nil || pr.gen == nil {
			continue
		}
		late = append(late, durationsMS(pr.gen.lateNS)...)
		if pr.gen.unsent > 0 {
			rep.problem("generator fell behind: %d batches due in the phase were never sent", pr.gen.unsent)
			behind = true
		}
		if pr.gen.exhausted {
			rep.problem("generator ran out of stream before the phase ended")
			behind = true
		}
		if rate := float64(pr.gen.updates) / pr.elapsed.Seconds(); rate < 0.95*ingestRate {
			rep.problem("generator fell behind: %.0f updates/s acknowledged, %d scheduled", rate, ingestRate)
			behind = true
		}
	}
	return late, behind
}

// checkRun checks the captured sessions against the exhaustive reference
// and, on ingest-live, the index contents after the stream. It returns
// the operations it attempted and the ones that failed or answered wrong.
func checkRun(rep *report, w spec, seed int64, rg *rig, pool []session, obsv []*observer, gen *generator,
	pr *phaseRun) (attempted, failed int64) {
	segs, err := population(w.scale, seed)
	if err != nil {
		rep.problem("reference: %v", err)
		return 0, 1
	}
	updates := updatesOf(segs)
	acked := 0
	if w.ingest() {
		acked = int(gen.state.acked.Load())
		load, _ := splitStream(segs)
		updates = append(load, rg.stream[:acked]...)
	}
	ref := newReference(updates)

	var caps []captured
	for _, r := range pr.obs {
		caps = append(caps, r.captures...)
	}
	if w.ingest() {
		if len(caps) == 0 {
			rep.problem("no complete live session to check")
			failed++
		}
		// The live sessions raced the stream; also check static sessions
		// replayed over the wire now that it has stopped, which must see
		// every acknowledged update.
		for i := 0; i < w.checkEach; i++ {
			c, n, err := replayOverWire(obsv[0].cl, &pool[i], i)
			attempted += n
			if err != nil {
				rep.problem("check replay: %v", err)
				failed += n
				continue
			}
			caps = append(caps, c)
		}
	}
	if len(caps) == 0 {
		rep.problem("no complete session to check")
		failed++
	}
	resends := 0
	for _, c := range caps {
		var err error
		switch {
		case c.live:
			var n int
			n, err = ref.checkLive(&pool[c.session], c.frames, rg.loaded+c.acked)
			resends += n
		case w.kind == kindPDQ:
			err = ref.checkPDQ(&pool[c.session], c.frames)
		default:
			err = ref.checkNPDQ(&pool[c.session], c.frames)
		}
		if err != nil {
			rep.problem("session %d: wrong answer: %v", c.session, err)
			failed += int64(len(c.frames))
		}
	}
	if w.ingest() {
		rep.info("live_resends", "count", float64(resends), nil)
		if got := rg.sharded.Len(); got != rg.loaded+acked {
			rep.problem("index holds %d segments, want %d loaded + %d acknowledged", got, rg.loaded, acked)
			failed++
		}
		if err := rg.sharded.Validate(); err != nil {
			rep.problem("validate: %v", err)
			failed++
		}
	}
	return attempted, failed
}

// replayOverWire runs one session as a static (non-live) PDQ over the
// wire and captures its answers.
func replayOverWire(cl *netq.Client, s *session, idx int) (captured, int64, error) {
	c := captured{session: idx}
	if err := cl.StartPredictive(s.waypoints, false); err != nil {
		return c, 1, err
	}
	for f, tw := range s.query.Times {
		rs, err := cl.FetchPredictive(tw.Lo, tw.Hi)
		if err != nil {
			return c, int64(f + 2), err
		}
		c.frames = append(c.frames, keysOf(rs))
	}
	return c, int64(len(s.query.Times) + 1), nil
}

// heapSampler tracks the peak Go heap in use while it runs.
type heapSampler struct {
	quit chan struct{}
	done chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.quit:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.done
}

// layerSnapshot is every counter a layer exposes, read at one instant.
type layerSnapshot struct {
	cost      stats.Snapshot
	buffer    dynq.BufferStats
	wal       obs.WALTelemetry
	shardCost []dynq.CostReport
	opHist    map[string]histSnapshot // netq_request_seconds by span name
	admission [2]float64              // netq_read_admission_wait_seconds sum, count
	shardTask []int64                 // dynq_shard_task_seconds bucket counts, summed over shards
	walFsync  []int64                 // dynq_wal_fsync_seconds bucket counts, summed over shard logs
	bytes     int64                   // bytes over the load connections
	runtime   []metrics.Sample
}

// histSnapshot is one histogram's state at one instant.
type histSnapshot struct {
	counts []int64
	sum    float64
	count  int64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// measuredOps are the netq ops the workloads issue, by span name.
var measuredOps = map[string]netq.Op{
	spanStart: netq.OpPDQStart,
	spanReset: netq.OpNPDQReset,
	spanFetch: netq.OpPDQFetch,
	spanNPDQ:  netq.OpNPDQ,
	spanApply: netq.OpApplyUpdates,
}

func snapshotLayers(rg *rig) layerSnapshot {
	s := layerSnapshot{
		cost:   rg.db.CostSnapshot(),
		buffer: rg.db.BufferStats(),
		opHist: map[string]histSnapshot{},
	}
	reg := rg.srv.Registry()
	for name, op := range measuredOps {
		h := reg.Histogram("netq_request_seconds", nil, obs.L("op", string(op)))
		s.opHist[name] = histSnapshot{counts: h.BucketCounts(), sum: h.Sum(), count: h.Count()}
	}
	adm := reg.Histogram("netq_read_admission_wait_seconds", nil)
	s.admission = [2]float64{adm.Sum(), float64(adm.Count())}
	if db := rg.sharded; db != nil {
		s.wal, _ = db.WALTelemetry(nil)
		for i := 0; i < db.Shards(); i++ {
			s.shardCost = append(s.shardCost, db.ShardCost(i))
			label := obs.L("shard", fmt.Sprint(i))
			s.shardTask = addCounts(s.shardTask, reg.Histogram("dynq_shard_task_seconds", nil, label).BucketCounts())
			// The server registers every shard log's histograms at start.
			s.walFsync = addCounts(s.walFsync, reg.Histogram("dynq_wal_fsync_seconds", nil, label).BucketCounts())
		}
	}
	for _, cc := range rg.conns {
		if cc != nil {
			s.bytes += cc.read + cc.written
		}
	}
	s.runtime = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s.runtime[i].Name = name
	}
	metrics.Read(s.runtime)
	return s
}

// addCounts adds one histogram's bucket counts into a running sum.
func addCounts(sum, counts []int64) []int64 {
	if sum == nil {
		sum = make([]int64, len(counts))
	}
	for j, c := range counts {
		sum[j] += c
	}
	return sum
}

func (s layerSnapshot) runtimeValue(i int) float64 {
	v := s.runtime[i].Value
	if v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	return v.Float64()
}
