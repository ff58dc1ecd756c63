package dynq

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dynq/internal/geom"
	"dynq/internal/rtree"
	"dynq/internal/shard"
	"dynq/internal/stats"
	"dynq/internal/wal"
)

// MotionUpdate is one element of a write batch: an insertion of a motion
// segment, or — with Delete set — the removal of the object's segment
// that starts at Segment.T0 (the other segment fields are ignored for
// deletions). A dead-reckoning re-announcement is its canonical source:
// delete the old prediction, insert the corrected one, in one batch.
type MotionUpdate struct {
	ID      ObjectID
	Segment Segment
	Delete  bool
}

// Durability says how hard ApplyUpdates must try before returning. The
// explicit levels are a contract: requesting DurabilityGroupCommit or
// DurabilitySync against a backend with no write-ahead log armed fails
// with ErrNoWAL rather than acknowledging an in-memory write as durable.
// Only the zero value adapts to whether a log is present.
type Durability int

const (
	// DurabilityDefault (the zero value) is the adaptive default: with a
	// WAL armed it behaves exactly like DurabilityGroupCommit; without
	// one the update is applied in memory and a later Sync persists it —
	// the pre-WAL contract. It is the only level that never fails for
	// lack of a log.
	DurabilityDefault Durability = iota
	// DurabilityGroupCommit returns once the batch's WAL record is
	// fsynced, coalescing with concurrent writers: the first waiter
	// leads a commit round, waits the group-commit window for others to
	// pile in, and one fsync covers them all. Throughput of batched
	// fsyncs, latency of at most one window plus one fsync. ErrNoWAL
	// without a log.
	DurabilityGroupCommit
	// DurabilitySync returns once the batch's WAL record is fsynced,
	// without waiting the coalescing window (it still shares an fsync
	// with any round already forming). Lowest latency per write.
	// ErrNoWAL without a log.
	DurabilitySync
	// DurabilityAsync returns as soon as the batch is applied in memory
	// and appended to the WAL's OS buffer; a crash may lose it. A later
	// synchronous write or Sync makes it durable retroactively (the log
	// is sequential: fsyncing record n covers every record before it).
	// Valid with or without a log.
	DurabilityAsync
)

// ErrNoWAL reports a write that requested explicit durability
// (DurabilityGroupCommit or DurabilitySync) against a database with no
// write-ahead log armed. The write is NOT applied: acknowledging it
// would silently downgrade a durability guarantee the caller asked for.
// Use DurabilityDefault (or DurabilityAsync) for backends that may run
// without a log, or arm one (Options.WALPath, ShardOptions.WAL).
var ErrNoWAL = errors.New("dynq: durability requested but no write-ahead log is armed")

// checkDurability enforces the Durability contract for a backend whose
// log may be absent: explicit sync levels require a WAL, and unknown
// levels are rejected before anything is applied.
func checkDurability(d Durability, walArmed bool) error {
	switch d {
	case DurabilityDefault, DurabilityAsync:
		return nil
	case DurabilityGroupCommit, DurabilitySync:
		if !walArmed {
			return ErrNoWAL
		}
		return nil
	default:
		return fmt.Errorf("dynq: unknown durability level %d", d)
	}
}

// WriteOptions carries per-write knobs for the context-aware write entry
// points (ApplyUpdates, InsertCtx, DeleteCtx, BulkLoadCtx), mirroring
// the read path's QueryOptions. The zero value — default durability
// (group commit when a WAL is armed), no deadline, no stats — matches
// the plain methods exactly.
type WriteOptions struct {
	// Durability selects how durable the write must be before the call
	// returns; see the Durability constants. Explicit sync levels fail
	// with ErrNoWAL when no log is armed.
	Durability Durability
	// Deadline, when positive, bounds the write's admission: the context
	// is wrapped with this timeout and checked before the batch is
	// applied. Once the batch is logged it applies in full — a deadline
	// cannot tear a batch in half — so the timeout covers lock
	// acquisition, not the fsync.
	Deadline time.Duration
	// Stats, when non-nil, receives the write's cost-counter delta (page
	// reads and writes, node splits surface as writes) when it completes.
	// Under concurrent operations the delta may include work charged by
	// overlapping operations.
	Stats func(stats.Snapshot)
}

// ApplyUpdates applies a batch of motion updates as one write: one lock
// acquisition, one WAL record, one durability wait — the high-rate
// ingest path for dead-reckoning bursts. Updates apply in slice order,
// so a delete-then-reinsert of the same object works within one batch.
//
// The batch is validated upfront, before anything is applied or logged:
// a malformed segment, or a delete with no matching segment (in the
// index or earlier in the batch), fails the whole batch — the latter
// with ErrNotFound — and nothing of it survives a crash.
//
// With a WAL armed the record is appended BEFORE the updates touch the
// index (write-ahead), then the call waits according to
// opts.Durability. The batch is atomic across crashes: recovery replays
// either the whole record or none of it. The one non-atomic case is a
// storage error mid-apply: the earlier updates stay applied and, because
// the record is already logged, crash recovery replays the WHOLE batch —
// possibly more of it than was applied in-process. Storage errors also
// count toward degraded read-only mode, so the database does not keep
// accepting writes onto a diverging index.
//
// When ctx carries a tracer (netq threads one per request), the batch is
// recorded as a traced span with validate / wal-append / tree-apply /
// fsync-wait stage deltas, continuing any trace context in ctx.
func (db *DB) ApplyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error {
	if len(updates) == 0 {
		return nil
	}
	ws := beginWriteSpan(ctx)
	err := db.applyUpdates(ctx, updates, opts, &ws, true)
	ws.finish(len(updates), err)
	return err
}

// applyUpdates is the batch write path. gated controls the degraded
// read-only check: public writes pass true; the maintenance probe passes
// false, because its whole purpose is to attempt a write while the
// database is degraded.
func (db *DB) applyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions, ws *writeSpan, gated bool) error {
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.counters.Snapshot)
	defer finish()
	// db.wal is immutable after open, so the durability contract can be
	// checked before any work: an explicit sync level with no log armed
	// must fail rather than ack an in-memory write as durable.
	if err := checkDurability(opts.Durability, db.wal != nil); err != nil {
		return err
	}
	// Validate and convert every update before taking the lock, so a bad
	// batch costs nothing and a logged batch never fails validation on
	// replay.
	mark := ws.now()
	_, segs, err := partitionBatch(updates, db.cfg.Dims, 1)
	ws.stage(stageValidate, ws.since(mark))
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	db.mu.Lock()
	if gated {
		if err := db.health.gate(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		db.mu.Unlock()
		return err
	}
	mark = ws.now()
	lsn, check, appendDur, err := appendAndApply(ws, db.tree, db.wal, db.cfg.Dims, updates, segs[0])
	ws.applyStages(ws.since(mark), check, appendDur, db.wal != nil)
	db.mu.Unlock()
	return finishWrite(&db.health, err, opts.Durability, db.logs(), []uint64{lsn}, ws)
}

// partitionBatch converts every insert's geometry — rejecting the whole
// batch on the first malformed segment — and splits the batch by owner
// shard, keeping slice order within each part. With one shard the single
// part is the batch itself.
func partitionBatch(updates []MotionUpdate, dims, shards int) ([][]MotionUpdate, [][]geom.Segment, error) {
	parts := make([][]MotionUpdate, shards)
	segs := make([][]geom.Segment, shards)
	if shards == 1 {
		parts[0] = updates
	}
	for _, u := range updates {
		var g geom.Segment
		if !u.Delete {
			var err error
			if g, err = toSegmentDims(u.Segment, dims); err != nil {
				return nil, nil, err
			}
		}
		s := shard.Place(rtree.ObjectID(u.ID), shards)
		if shards > 1 {
			parts[s] = append(parts[s], u)
		}
		segs[s] = append(segs[s], g)
	}
	return parts, segs, nil
}

// appendAndApply is one unit's half of a write, shared by both engines:
// it checks that every deletion has a segment to remove (so a batch that
// fails with ErrNotFound is never logged and never resurrected by
// replay), appends the batch to log as ONE crash-atomic record before it
// touches the tree (write-ahead; skipped when log is nil), then applies
// it. The caller holds the lock guarding tree, so the log's record order
// is the order mutations became visible. It returns the record's LSN (0
// without a log) and, for the write span, the wall time of the check and
// of the append (zero when ws traces nothing).
func appendAndApply(ws *writeSpan, tree *rtree.Tree, log *wal.Log, dims int, updates []MotionUpdate, segs []geom.Segment) (lsn uint64, check, appendDur time.Duration, err error) {
	mark := ws.now()
	err = validateDeletesOn(tree, updates)
	check = ws.since(mark)
	if err != nil {
		return 0, check, 0, err
	}
	if log != nil {
		mark = ws.now()
		lsn, err = log.Append(encodeUpdates(dims, updates))
		appendDur = ws.since(mark)
		if err != nil {
			return 0, check, appendDur, fmt.Errorf("dynq: wal append: %w", err)
		}
	}
	return lsn, check, appendDur, applyToTree(tree, updates, segs, false)
}

// finishWrite settles a write batch once every lock is released, for
// both engines: the outcome feeds the health state (ErrNotFound is an
// answer, not a storage failure), then the call waits for each touched
// log's record (lsns[i] != 0) as d requires. The wait runs outside every
// lock, so an fsync never blocks readers or a checkpoint and concurrent
// writers pile into each log's group-commit round. One touched log waits
// inline; several sync in parallel, so the wait is the slowest log, not
// the sum.
func finishWrite(health *degradeState, err error, d Durability, logs []*wal.Log, lsns []uint64, ws *writeSpan) error {
	if err == ErrNotFound {
		return err
	}
	if err != nil {
		return health.note(err)
	}
	health.note(nil)
	if logs == nil || d == DurabilityAsync {
		return nil
	}
	mark := ws.now()
	errs := make([]error, len(logs))
	wait := func(i int) {
		if d == DurabilitySync {
			errs[i] = logs[i].SyncNow(lsns[i])
		} else {
			errs[i] = logs[i].Sync(lsns[i])
		}
	}
	touched := 0
	for _, lsn := range lsns {
		if lsn != 0 {
			touched++
		}
	}
	var wg sync.WaitGroup
	for i, lsn := range lsns {
		switch {
		case lsn == 0:
		case touched == 1:
			wait(i)
		default:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wait(i)
			}(i)
		}
	}
	wg.Wait()
	ws.stage(stageFsyncWait, ws.since(mark))
	for i, werr := range errs {
		if werr != nil {
			return health.note(fmt.Errorf("dynq: wal commit%s: %w", shardTag(i, len(logs)), werr))
		}
	}
	return nil
}

// shardTag labels a message with its shard on a sharded database and
// with nothing for a single tree, so both engines share one wording.
func shardTag(i, n int) string {
	if n == 1 {
		return ""
	}
	return fmt.Sprintf(" (shard %d)", i)
}

// validateDeletesOn is the tree-level delete balance check shared by the
// single-tree and per-shard write paths; the caller must hold the lock
// guarding tree and attribute storage errors to its own health state.
func validateDeletesOn(tree *rtree.Tree, updates []MotionUpdate) error {
	hasDelete := false
	for _, u := range updates {
		if u.Delete {
			hasDelete = true
			break
		}
	}
	if !hasDelete {
		return nil
	}
	type segKey struct {
		id ObjectID
		t0 float64
	}
	// avail tracks the batch's net balance per key on top of the index,
	// which holds at most one segment per (object, start time).
	avail := make(map[segKey]int)
	for _, u := range updates {
		k := segKey{u.ID, float64(float32(u.Segment.T0))} // match on-disk quantization
		if !u.Delete {
			avail[k]++
			continue
		}
		if avail[k] > 0 {
			avail[k]--
			continue
		}
		if avail[k] < 0 {
			// An earlier delete already consumed the index's only copy.
			return ErrNotFound
		}
		ok, err := tree.Contains(rtree.ObjectID(u.ID), u.Segment.T0)
		if err != nil {
			return err
		}
		if !ok {
			return ErrNotFound
		}
		avail[k]--
	}
	return nil
}

// applyToTree applies converted updates to one tree in slice order — the
// shared mutation loop behind the single-tree and per-shard write paths.
// The caller holds the lock guarding tree and owns health accounting.
func applyToTree(tree *rtree.Tree, updates []MotionUpdate, segs []geom.Segment, replay bool) error {
	for i, u := range updates {
		if u.Delete {
			err := tree.Delete(rtree.ObjectID(u.ID), u.Segment.T0)
			if err == rtree.ErrNotFound {
				if replay {
					continue
				}
				// A missing segment is an answer, not a storage failure.
				return ErrNotFound
			}
			if err != nil {
				return err
			}
			continue
		}
		if err := tree.Insert(rtree.ObjectID(u.ID), segs[i]); err != nil {
			return err
		}
	}
	return nil
}

// InsertCtx is Insert with a context and per-write options.
func (db *DB) InsertCtx(ctx context.Context, id ObjectID, seg Segment, opts WriteOptions) error {
	return db.ApplyUpdates(ctx, []MotionUpdate{{ID: id, Segment: seg}}, opts)
}

// DeleteCtx is Delete with a context and per-write options.
func (db *DB) DeleteCtx(ctx context.Context, id ObjectID, t0 float64, opts WriteOptions) error {
	return db.ApplyUpdates(ctx, []MotionUpdate{{ID: id, Segment: Segment{T0: t0}, Delete: true}}, opts)
}

// BulkLoadCtx builds the index from an ordered batch at a 0.5 fill
// factor, replacing any current contents; the database must be empty and
// the batch must contain no deletions. It is far faster than repeated
// inserts for large historical loads. The load itself is NOT WAL-logged
// (a log entry per bulk segment would defeat the point); call Sync to
// make it durable, exactly as before the WAL existed.
func (db *DB) BulkLoadCtx(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error {
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.counters.Snapshot)
	defer finish()
	entries, err := bulkEntries(updates, db.cfg.Dims)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.health.gate(); err != nil {
		return err
	}
	if db.tree.Size() != 0 {
		return fmt.Errorf("dynq: BulkLoad requires an empty database")
	}
	tree, err := rtree.BulkLoad(db.tree.Config(), db.store, entries)
	if err != nil {
		return db.health.note(err)
	}
	db.health.note(nil)
	if db.bufferPages > 0 {
		if err := tree.UseBuffer(db.bufferPages); err != nil {
			return err
		}
	}
	tree.SetCounters(&db.counters)
	db.tree = tree
	return nil
}

// bulkEntries converts a bulk-load batch to leaf entries for either
// engine; a deletion fails the batch, since it needs an existing index.
func bulkEntries(updates []MotionUpdate, dims int) ([]rtree.LeafEntry, error) {
	entries := make([]rtree.LeafEntry, len(updates))
	for i, u := range updates {
		if u.Delete {
			return nil, fmt.Errorf("dynq: BulkLoad batch contains a deletion (object %d); deletions need an existing index", u.ID)
		}
		g, err := toSegmentDims(u.Segment, dims)
		if err != nil {
			return nil, err
		}
		entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(u.ID), Seg: g}
	}
	return entries, nil
}

// BulkLoadUpdates is BulkLoadCtx without a context: the order-preserving
// bulk load form sharing MotionUpdate with ApplyUpdates and WAL replay.
func (db *DB) BulkLoadUpdates(updates []MotionUpdate) error {
	return db.BulkLoadCtx(context.Background(), updates, WriteOptions{})
}

// sortedUpdates flattens the legacy map form into the ordered form,
// sorted by (object, start time) for determinism.
func sortedUpdates(segs map[ObjectID][]Segment) []MotionUpdate {
	ids := make([]ObjectID, 0, len(segs))
	for id := range segs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var updates []MotionUpdate
	for _, id := range ids {
		list := append([]Segment(nil), segs[id]...)
		sort.Slice(list, func(i, j int) bool { return list[i].T0 < list[j].T0 })
		for _, s := range list {
			updates = append(updates, MotionUpdate{ID: id, Segment: s})
		}
	}
	return updates
}

// WAL record payload: a batch of motion updates in slice order.
//
//	offset 0  1 byte  payload version (1)
//	offset 1  1 byte  spatial dimensionality
//	offset 2  4 bytes update count
//	then per update:
//	  1 byte  flags (bit 0 = delete)
//	  8 bytes object id
//	  8 bytes t0
//	  inserts only: 8 bytes t1, dims×8 bytes from, dims×8 bytes to
const updatesPayloadVersion = 1

func encodeUpdates(dims int, updates []MotionUpdate) []byte {
	size := 6
	for _, u := range updates {
		size += 1 + 8 + 8
		if !u.Delete {
			size += 8 + 2*8*dims
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, updatesPayloadVersion, byte(dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(updates)))
	for _, u := range updates {
		var flags byte
		if u.Delete {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, u.ID)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Segment.T0))
		if u.Delete {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Segment.T1))
		for _, v := range u.Segment.From {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range u.Segment.To {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// decodeUpdates parses a WAL batch payload, validating it against the
// database's dimensionality. The record-level checksum already caught
// random corruption; this guards the logical layer.
func decodeUpdates(payload []byte, wantDims int) ([]MotionUpdate, error) {
	if len(payload) < 6 {
		return nil, fmt.Errorf("batch payload truncated (%d bytes)", len(payload))
	}
	if payload[0] != updatesPayloadVersion {
		return nil, fmt.Errorf("unsupported batch payload version %d", payload[0])
	}
	dims := int(payload[1])
	if dims != wantDims {
		return nil, fmt.Errorf("batch has %d dims, database has %d", dims, wantDims)
	}
	count := int(binary.LittleEndian.Uint32(payload[2:]))
	// Bound the claim by the real minimum update size (17 bytes) before
	// sizing the slice, so a corrupt-but-checksummed count cannot force a
	// multi-gigabyte allocation.
	if count > (len(payload)-6)/17 {
		return nil, fmt.Errorf("batch claims %d updates in %d bytes", count, len(payload))
	}
	readF64 := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
	}
	updates := make([]MotionUpdate, 0, count)
	off := 6
	for i := 0; i < count; i++ {
		if off+17 > len(payload) {
			return nil, fmt.Errorf("update %d truncated", i)
		}
		del := payload[off]&1 == 1
		u := MotionUpdate{ID: binary.LittleEndian.Uint64(payload[off+1:]), Delete: del}
		u.Segment.T0 = readF64(off + 9)
		off += 17
		if del {
			updates = append(updates, u)
			continue
		}
		need := 8 + 2*8*dims
		if off+need > len(payload) {
			return nil, fmt.Errorf("update %d truncated", i)
		}
		u.Segment.T1 = readF64(off)
		off += 8
		u.Segment.From = make([]float64, dims)
		u.Segment.To = make([]float64, dims)
		for d := 0; d < dims; d++ {
			u.Segment.From[d] = readF64(off)
			off += 8
		}
		for d := 0; d < dims; d++ {
			u.Segment.To[d] = readF64(off)
			off += 8
		}
		updates = append(updates, u)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("batch carries %d trailing bytes", len(payload)-off)
	}
	return updates, nil
}
