package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynq"
	"dynq/internal/core"
	"dynq/internal/obs"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/workload"
)

// Span names of the in-process replays, one layer below netq each.
const (
	spanDynqFrame = "dynq.frame"
	spanDynqApply = "dynq.apply"
	spanCoreFrame = "core.frame"
)

// A replay span's id is its request id plus its layer's offset, so the
// spans of one request stay distinct and each names its parent.
const (
	dynqSpanOffset = 1 << 61
	coreSpanOffset = 2 << 61
)

// Targets: the end-to-end metric (and workload) each layer metric should
// move. README.md explains them.
const (
	tgtWire  = "frame_p50_ms,frames_per_s on pdq-flythrough (slightly on npdq-large)"
	tgtDynq  = "frame_p50_ms on npdq-large; ack_p50_ms on ingest-live"
	tgtCore  = "frame_p50_ms on pdq-flythrough and npdq-large"
	tgtIndex = "frame_p50_ms on npdq-large; ack_p50_ms on ingest-live"
	tgtPager = "frame_p90_ms on npdq-large"
	tgtWAL   = "ack_p50_ms on ingest-live"
	tgtShard = "frame_p90_ms on ingest-live"
	tgtGo    = "frame_p50_ms on pdq-flythrough and npdq-large"
	tgtGen   = "validity of ack_p50_ms on ingest-live"
	tgtTrace = "tracing overhead: traced minus untraced, same run"
)

// perLayer reports the per-layer metrics of the traced phase and writes
// every span out.
func perLayer(rep *report, cfg config, w spec, out string, rg *rig, pool []session,
	traced, untraced *phaseRun, before, after layerSnapshot, batchStart int, genLate []float64, behind bool) error {
	var spans []span
	for _, r := range traced.obs {
		spans = append(spans, r.spans...)
	}
	if traced.gen != nil {
		spans = append(spans, traced.gen.spans...)
	}
	frameNS, _, _ := traced.frames()
	frames := float64(len(frameNS))
	var updates, batches float64
	if traced.gen != nil {
		updates = float64(traced.gen.updates)
		batches = float64(len(traced.gen.ackNS))
	}
	secs := traced.elapsed.Seconds()

	// netq: client round trips by op, server-side op time, wire share.
	rtt := map[string][]float64{}
	for _, s := range spans {
		if _, ok := measuredOps[s.Name]; ok {
			rtt[s.Name] = append(rtt[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	opNames := []struct{ span, label, target string }{
		{spanFetch, "fetch", tgtWire}, {spanNPDQ, "npdq", tgtWire},
		{spanApply, "apply", tgtWAL}, {spanStart, "start", tgtWire},
	}
	for _, op := range opNames {
		b, a := before.opHist[op.span], after.opHist[op.span]
		srv := 1e6 * bucketQuantile(obs.DefLatencyBuckets(), diffCounts(a.counts, b.counts), 0.5)
		rep.add("netq."+op.label+".rtt_us", "us", median(rtt[op.span]), rtt[op.span], op.target)
		rep.add("netq."+op.label+".server_op_us", "us", srv, nil, op.target)
		// The wire share compares means: the server histogram's sum is
		// exact, its bucketed p50 is not.
		wire := 0.0
		if n := a.count - b.count; n > 0 && len(rtt[op.span]) > 0 {
			wire = mean(rtt[op.span]) - 1e6*(a.sum-b.sum)/float64(n)
		}
		rep.add("netq."+op.label+".wire_us", "us", wire, nil, op.target)
	}
	var ops float64
	for _, v := range rtt {
		ops += float64(len(v))
	}
	rep.add("netq.bytes_per_op", "B", safeDiv(float64(after.bytes-before.bytes), ops), nil, tgtWire)
	rep.add("netq.admission_wait_us", "us",
		1e6*safeDiv(after.admission[0]-before.admission[0], after.admission[1]-before.admission[1]), nil, tgtWire)

	// dynq: the same sessions (and batches) replayed in-process.
	replayed := replaySessions(w, traced)
	dynqSpans, err := replayDynq(rg, w, pool, replayed)
	if err != nil {
		return fmt.Errorf("dynq replay: %w", err)
	}
	spans = append(spans, dynqSpans...)
	var applySpans []span
	if traced.gen != nil {
		applySpans, err = replayApply(rg, w, cfg.seed, traced.gen, batchStart)
		if err != nil {
			return fmt.Errorf("apply replay: %w", err)
		}
		spans = append(spans, applySpans...)
	}
	dynqFrame := durationsUS(dynqSpans)
	rep.add("dynq.frame_us", "us", median(dynqFrame), dynqFrame, tgtDynq)
	applyUS := durationsUS(applySpans)
	rep.add("dynq.apply_us_per_batch", "us", median(applyUS), applyUS, tgtDynq)
	netqSelf := selfTimes(spans, frameSpanNames, spanDynqFrame)
	netqSelf = append(netqSelf, selfTimes(spans, []string{spanApply}, spanDynqApply)...)
	rep.add("netq.self_us", "us", median(netqSelf), netqSelf, tgtWire)

	// core (and below): the sessions on core.NewPDQ/NewNPDQ over a tree
	// from workload.BuildIndex, with the paper's cost counters.
	coreSpans, c, err := replayCore(w, cfg.seed, pool, replayed)
	if err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	spans = append(spans, coreSpans...)
	coreFrame := durationsUS(coreSpans)
	nf := float64(len(coreSpans))
	rep.add("core.frame_us", "us", median(coreFrame), coreFrame, tgtCore)
	dynqSelf := selfTimes(spans, []string{spanDynqFrame}, spanCoreFrame)
	rep.add("dynq.self_us", "us", median(dynqSelf), dynqSelf, tgtDynq)
	rep.add("core.results_per_frame", "count", safeDiv(float64(c.Results), nf), nil, tgtCore)
	rep.add("core.pruned_per_frame", "count", safeDiv(float64(c.PrunedNodes), nf), nil, tgtCore)
	rep.add("core.results_per_dist", "ratio", safeDiv(float64(c.Results), float64(c.DistanceComps)), nil, tgtCore)
	discard := 0.0
	if w.kind == kindNPDQ {
		discard = safeDiv(float64(c.PrunedNodes), float64(c.PrunedNodes+c.Reads()))
	}
	rep.add("core.npdq.discard_ratio", "ratio", discard, nil, tgtCore)
	rep.add("rtree.leaf_reads_per_frame", "count", safeDiv(float64(c.LeafReads), nf), nil, tgtIndex)
	rep.add("rtree.internal_reads_per_frame", "count", safeDiv(float64(c.InternalReads), nf), nil, tgtIndex)
	rep.add("geom.dist_comps_per_frame", "count", safeDiv(float64(c.DistanceComps), nf), nil, tgtIndex)
	cost := after.cost.Sub(before.cost)
	rep.add("rtree.page_writes_per_update", "count", safeDiv(float64(cost.PageWrites), updates), nil, tgtIndex)

	// pager: the served engine's buffer pool over the traced phase.
	hits := float64(after.buffer.Hits - before.buffer.Hits)
	misses := float64(after.buffer.Misses - before.buffer.Misses)
	rep.add("pager.hit_ratio", "ratio", safeDiv(hits, hits+misses), nil, tgtPager)
	rep.add("pager.misses_per_frame", "count", safeDiv(misses, frames), nil, tgtPager)
	rep.add("pager.evictions_per_s", "1/s", float64(after.buffer.Evictions-before.buffer.Evictions)/secs, nil, tgtPager)
	rep.add("pager.writebacks_per_update", "count",
		safeDiv(float64(after.buffer.WriteBacks-before.buffer.WriteBacks), updates), nil, tgtPager)

	// wal: the per-shard logs' telemetry over the traced phase.
	fsyncs := float64(after.wal.Fsyncs - before.wal.Fsyncs)
	coalesced := float64(after.wal.Coalesced - before.wal.Coalesced)
	rep.add("wal.fsyncs_per_batch", "count", safeDiv(fsyncs, batches), nil, tgtWAL)
	rep.add("wal.coalesce_ratio", "ratio", safeDiv(coalesced, coalesced+fsyncs), nil, tgtWAL)
	rep.add("wal.bytes_per_update", "B", safeDiv(float64(after.wal.AppendedBytes-before.wal.AppendedBytes), updates), nil, tgtWAL)
	fsyncP99 := 0.0
	if after.walFsync != nil {
		fsyncP99 = 1e3 * bucketQuantile(obs.DefLatencyBuckets(), diffCounts(after.walFsync, before.walFsync), 0.99)
	}
	rep.add("wal.fsync_p99_ms", "ms", fsyncP99, nil, tgtWAL)
	rep.add("wal.checkpoints", "count", float64(after.wal.Checkpoints-before.wal.Checkpoints), nil, tgtWAL)

	// shard: fan-out task tail and read skew across shards.
	taskP99 := 0.0
	if after.shardTask != nil {
		taskP99 = 1e6 * bucketQuantile(obs.DefLatencyBuckets(), diffCounts(after.shardTask, before.shardTask), 0.99)
	}
	rep.add("shard.task_p99_us", "us", taskP99, nil, tgtShard)
	rep.add("shard.read_skew", "ratio", readSkew(before.shardCost, after.shardCost), nil, tgtShard)

	// Go runtime over the traced phase.
	allocs := after.runtimeValue(0) - before.runtimeValue(0)
	allocBytes := after.runtimeValue(1) - before.runtimeValue(1)
	gcCPU := after.runtimeValue(2) - before.runtimeValue(2)
	allCPU := after.runtimeValue(3) - before.runtimeValue(3)
	rep.add("go.allocs_per_frame", "count", safeDiv(allocs, frames), nil, tgtGo)
	rep.add("go.alloc_bytes_per_frame", "B", safeDiv(allocBytes, frames), nil, tgtGo)
	rep.add("go.gc_cpu_frac", "ratio", safeDiv(gcCPU, allCPU), nil, tgtGo)

	// The harness itself: open-loop lateness and tracing overhead.
	rep.add("gen.late_p99_ms", "ms", percentile(genLate, 99), genLate, tgtGen)
	flag := 0.0
	if behind {
		flag = 1
	}
	rep.add("gen.behind", "count", flag, nil, tgtGen)
	untracedNS, _, _ := untraced.frames()
	rep.add("trace.frame_p50_delta_ms", "ms",
		percentile(durationsMS(frameNS), 50)-percentile(durationsMS(untracedNS), 50), nil, tgtTrace)
	rep.add("trace.frames_per_s_delta", "1/s",
		frames/secs-float64(len(untracedNS))/untraced.elapsed.Seconds(), nil, tgtTrace)

	return writeSpans(cfg, out, spans)
}

// frameSpanNames are the client spans of dynamic-query frames.
var frameSpanNames = []string{spanFetch, spanNPDQ}

// replayItem is one session execution to repeat one layer down.
type replayItem struct {
	obs, k, session int
}

// replaySessions picks, per observer, the first w.replay sessions it ran
// to completion in the traced phase.
func replaySessions(w spec, traced *phaseRun) []replayItem {
	var out []replayItem
	for i, r := range traced.obs {
		n := 0
		for _, rs := range r.ran {
			if rs.complete && n < w.replay {
				out = append(out, replayItem{obs: i, k: rs.k, session: rs.session})
				n++
			}
		}
	}
	return out
}

// replayDynq repeats the sessions in-process through the served engine's
// Database cursors, one span per frame under the client request's id.
func replayDynq(rg *rig, w spec, pool []session, items []replayItem) ([]span, error) {
	var out []span
	npdq := rg.db.NonPredictive(dynq.NonPredictiveOptions{})
	epoch := time.Now()
	for _, it := range items {
		s := &pool[it.session]
		var cur dynq.PredictiveCursor
		if w.kind == kindPDQ {
			var err error
			if cur, err = rg.db.Predictive(s.waypoints, dynq.PredictiveOptions{Live: w.ingest()}); err != nil {
				return nil, err
			}
		} else {
			npdq.Reset()
		}
		for f, tw := range s.query.Times {
			t0 := time.Now()
			var err error
			if cur != nil {
				_, err = cur.Fetch(tw.Lo, tw.Hi)
			} else {
				_, err = npdq.Snapshot(s.views[f], tw.Lo, tw.Hi)
			}
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			id := reqID(it.obs, it.k, f)
			out = append(out, span{Name: spanDynqFrame, ID: id + dynqSpanOffset, Parent: id, Req: id,
				Start: t0.Sub(epoch).Nanoseconds(), End: t1.Sub(epoch).Nanoseconds()})
		}
		if cur != nil {
			cur.Close()
		}
	}
	return out, nil
}

// replayApply repeats the traced phase's ingest batches in-process on an
// identically configured engine: same bulk load, then every earlier batch
// applied untimed, then the traced batches timed one by one.
func replayApply(rg *rig, w spec, seed int64, gr *generatorRun, batchStart int) ([]span, error) {
	segs, err := population(w.scale, seed)
	if err != nil {
		return nil, err
	}
	load, stream := splitStream(segs)
	dir := filepath.Join(rg.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := openShardedEngine(filepath.Join(dir, "ingest.dynq"))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.BulkLoadUpdates(load); err != nil {
		return nil, err
	}
	if err := db.Sync(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	pre := stream[:batchStart*ingestBatch]
	if len(pre) > 0 {
		if err := db.ApplyUpdates(ctx, pre, dynq.WriteOptions{Durability: dynq.DurabilityAsync}); err != nil {
			return nil, err
		}
	}
	var out []span
	epoch := time.Now()
	for _, b := range gr.batchIdx {
		batch := stream[b*ingestBatch : (b+1)*ingestBatch]
		t0 := time.Now()
		if err := db.ApplyUpdates(ctx, batch, dynq.WriteOptions{}); err != nil {
			return nil, err
		}
		t1 := time.Now()
		id := reqID(-1, 0, 0) + int64(b)
		out = append(out, span{Name: spanDynqApply, ID: id + dynqSpanOffset, Parent: id, Req: id,
			Start: t0.Sub(epoch).Nanoseconds(), End: t1.Sub(epoch).Nanoseconds()})
	}
	return out, nil
}

// replayCore repeats the sessions on the core engines over a tree built by
// workload.BuildIndex (in memory, no buffer pool), the way the paper's
// experiments run them, and returns the summed cost counters.
func replayCore(w spec, seed int64, pool []session, items []replayItem) ([]span, stats.Snapshot, error) {
	cfg := rtree.DefaultConfig()
	cfg.DualTime = w.engine == engineFileDual
	tree, _, err := workload.BuildIndex(cfg, w.scale, seed)
	if err != nil {
		return nil, stats.Snapshot{}, err
	}
	var c stats.Counters
	var out []span
	epoch := time.Now()
	for _, it := range items {
		s := &pool[it.session]
		var pdq *core.PDQ
		var npdq *core.NPDQ
		if w.kind == kindPDQ {
			if pdq, err = core.NewPDQ(tree, s.query.Traj, core.PDQOptions{}, &c); err != nil {
				return nil, stats.Snapshot{}, err
			}
		} else {
			npdq = core.NewNPDQ(tree, core.NPDQOptions{}, &c)
		}
		for f, tw := range s.query.Times {
			t0 := time.Now()
			if pdq != nil {
				_, err = pdq.Drain(tw.Lo, tw.Hi)
			} else {
				_, err = npdq.Next(s.query.Windows[f], tw)
			}
			t1 := time.Now()
			if err != nil {
				return nil, stats.Snapshot{}, err
			}
			id := reqID(it.obs, it.k, f)
			out = append(out, span{Name: spanCoreFrame, ID: id + coreSpanOffset, Parent: id + dynqSpanOffset, Req: id,
				Start: t0.Sub(epoch).Nanoseconds(), End: t1.Sub(epoch).Nanoseconds()})
		}
		if pdq != nil {
			pdq.Close()
		}
	}
	return out, c.Snapshot(), nil
}

// selfTimes returns, for every request that has both an outer span (one
// of the outer names) and a child span named inner, the outer duration
// minus the child's, in microseconds: the outer layer's self time.
func selfTimes(spans []span, outer []string, inner string) []float64 {
	isOuter := map[string]bool{}
	for _, n := range outer {
		isOuter[n] = true
	}
	child := map[int64]int64{}
	for _, s := range spans {
		if s.Name == inner {
			child[s.Req] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if c, ok := child[s.Req]; ok && isOuter[s.Name] {
			out = append(out, float64(s.End-s.Start-c)/1e3)
		}
	}
	return out
}

func durationsUS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.End-s.Start) / 1e3
	}
	return out
}

func diffCounts(after, before []int64) []int64 {
	out := make([]int64, len(after))
	for i := range after {
		out[i] = after[i]
		if i < len(before) {
			out[i] -= before[i]
		}
	}
	return out
}

// bucketQuantile interpolates quantile q inside histogram bucket counts
// (upper bounds plus an implicit overflow bucket), as the server's
// telemetry does; 0 for an empty histogram.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			return lo + (bounds[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return bounds[len(bounds)-1]
}

// readSkew is the busiest shard's node reads over the mean across shards.
func readSkew(before, after []dynq.CostReport) float64 {
	if len(after) == 0 {
		return 0
	}
	var sum, top float64
	for i := range after {
		r := float64(after[i].DiskReads - before[i].DiskReads)
		sum += r
		top = max(top, r)
	}
	return safeDiv(top, sum/float64(len(after)))
}

// writeSpans writes every span of the run as JSON lines under traces/.
func writeSpans(cfg config, out string, spans []span) error {
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", cfg.workload, cfg.seed, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
