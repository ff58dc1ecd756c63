package dynq

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/shard"
	"dynq/internal/stats"
	"dynq/internal/wal"
)

// ShardOptions configure a sharded database: the single-tree Options plus
// the partitioning knobs.
type ShardOptions struct {
	Options
	// Shards is the number of hash partitions (>= 1). Objects are placed
	// by a hash of their id, so every motion update touches exactly one
	// shard while every query fans out across all of them.
	Shards int
	// Workers bounds how many per-shard query tasks run concurrently
	// across ALL queries on the database (default GOMAXPROCS).
	Workers int
	// WAL arms a write-ahead log sidecar per shard ("<Path>.shard<i>.wal"):
	// each shard's sub-batch is logged as one crash-atomic record under
	// that shard's write lock, and Sync checkpoints every log against its
	// shard's committed metadata. Requires Options.Path (the logs recover
	// against the shard page files). Options.WALPath is rejected here —
	// a sharded database has one log PER SHARD, not one log total.
	WAL bool
}

// ShardedDB partitions the object population across Shards independent
// NSI R-trees and answers every query by fanning out over a bounded
// worker pool, merging the per-shard answers deterministically. It
// mirrors the DB API (and satisfies Database), so a server can swap one
// for the other without protocol changes.
//
// Concurrency: writes synchronize per shard, not per database. Data
// mutations (Insert, Delete, ApplyUpdates) hold the database lock in
// SHARED mode and serialize on their owner shard's lock inside the
// engine, so a write burst on shard 3 never blocks a read on shard 7 —
// only on shard 3, and only for the duration of that batch. Queries
// hold the shared database lock plus per-shard read locks inside their
// fan-out tasks. Structural operations (BulkLoad, Close) take the
// database lock exclusively. Stats accessors are atomic, and session
// types are single-goroutine.
type ShardedDB struct {
	mu     sync.RWMutex
	engine *shard.Engine
	dims   int
	health degradeState

	// wals holds the per-shard write-ahead logs, index-aligned with the
	// engine's shards; nil when the database runs without logs. The slice
	// is immutable after open: either every shard has a log or none does.
	wals     []*wal.Log
	path     string
	recovery []*RecoveryReport
	// maint is the self-healing maintenance loop, nil when
	// Options.Maintenance left it disabled.
	maint *maintainer
}

// shardFilePath names shard i's page file under a sharded database path.
func shardFilePath(path string, i int) string {
	return fmt.Sprintf("%s.shard%d", path, i)
}

// shardWALPath names shard i's write-ahead log sidecar.
func shardWALPath(path string, i int) string {
	return shardFilePath(path, i) + ".wal"
}

// OpenSharded creates a NEW sharded database. With Options.Path set,
// each shard stores its pages in its own file "<Path>.shard<i>"; the
// files must not already exist — reopening an existing sharded database
// goes through OpenShardedRecover, which verifies each shard file and
// replays its log instead of truncating it. Without a path all shards
// live in memory. With ShardOptions.WAL set each shard also gets a log
// sidecar "<Path>.shard<i>.wal" armed from the start.
func OpenSharded(opts ShardOptions) (*ShardedDB, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("dynq: ShardOptions.Shards must be >= 1, got %d", opts.Shards)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("dynq: ShardOptions.Workers must be >= 0, got %d", opts.Workers)
	}
	if opts.WALPath != "" {
		return nil, fmt.Errorf("dynq: ShardOptions.WALPath is not supported: a sharded database has one log per shard, not one log total; set ShardOptions.WAL to arm \"<Path>.shard<i>.wal\" sidecars")
	}
	if opts.WAL && opts.Path == "" {
		return nil, fmt.Errorf("dynq: ShardOptions.WAL requires Options.Path: per-shard logs recover against the shard page files")
	}
	cfg, err := opts.Options.toConfig()
	if err != nil {
		return nil, err
	}
	if opts.Path != "" {
		// Fresh-create is explicit: silently truncating a previous run's
		// shard files on reopen destroyed data. Any existing shard file —
		// including one from a run with a different shard count — is a
		// refusal, not a truncation.
		if existing, err := existingShardFiles(opts.Path); err != nil {
			return nil, err
		} else if len(existing) > 0 {
			return nil, fmt.Errorf("dynq: sharded database files already exist at %q (found %s): use OpenShardedRecover to reopen, or remove them for a fresh database", opts.Path, existing[0])
		}
	}
	bufferPages := walBufferPages(opts.BufferPages, opts.WAL)
	storeFor := func(i int) (pager.Store, error) {
		if opts.Path == "" {
			return pager.NewMemStore(), nil
		}
		return pager.CreateFileStore(shardFilePath(opts.Path, i))
	}
	engine, err := shard.New(cfg, shard.Options{
		Shards:      opts.Shards,
		Workers:     opts.Workers,
		BufferPages: bufferPages,
	}, storeFor)
	if err != nil {
		return nil, err
	}
	db := &ShardedDB{engine: engine, dims: cfg.Dims, path: opts.Path}
	db.health.after = int32(opts.DegradeAfter)
	for i := 0; i < opts.Shards; i++ {
		if err := commitBase(engine.Shard(i).Tree, engine.Shard(i).Store()); err != nil {
			engine.Close()
			return nil, err
		}
	}
	if opts.WAL {
		db.wals = make([]*wal.Log, opts.Shards)
		for i := range db.wals {
			w, err := wal.Create(shardWALPath(opts.Path, i), wal.Options{GroupCommitWindow: opts.GroupCommitWindow})
			if err != nil {
				closeLogs(db.wals)
				engine.Close()
				return nil, err
			}
			db.wals[i] = w
		}
	}
	db.maint = startMaintainer(db, opts.Maintenance)
	return db, nil
}

// existingShardFiles lists the shard page files already present for a
// database path, in shard order ("<path>.shard0", "<path>.shard1", ...).
// The scan stops at the first gap; a gap with higher-numbered files
// present is reported as an error rather than treated as absence, so a
// partially deleted shard set is never mistaken for a fresh directory.
func existingShardFiles(path string) ([]string, error) {
	var files []string
	for i := 0; ; i++ {
		p := shardFilePath(path, i)
		if _, err := os.Stat(p); err != nil {
			if os.IsNotExist(err) {
				break
			}
			return nil, err
		}
		files = append(files, p)
	}
	// A hole at the front (shard0 missing, shard1 present) would otherwise
	// read as "no database here".
	if len(files) == 0 {
		if _, err := os.Stat(shardFilePath(path, 1)); err == nil {
			return nil, fmt.Errorf("dynq: shard file %q exists but %q is missing: partial shard set", shardFilePath(path, 1), shardFilePath(path, 0))
		}
	}
	return files, nil
}

// Close shuts the worker pool down and releases every shard's store and
// log.
func (db *ShardedDB) Close() error {
	db.maint.stop()
	err := db.engine.Close()
	return errors.Join(err, closeLogs(db.wals))
}

// Dims returns the spatial dimensionality.
func (db *ShardedDB) Dims() int { return db.dims }

// Len returns the number of indexed motion segments across all shards.
func (db *ShardedDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Size()
}

// Shards returns the number of partitions.
func (db *ShardedDB) Shards() int { return db.engine.Shards() }

// Workers returns the worker-pool bound.
func (db *ShardedDB) Workers() int { return db.engine.Workers() }

// ShardFor returns the partition owning an object's motion segments.
func (db *ShardedDB) ShardFor(id ObjectID) int {
	return db.engine.ShardFor(rtree.ObjectID(id))
}

// Insert records one motion update for an object on its owner shard.
func (db *ShardedDB) Insert(id ObjectID, seg Segment) error {
	return db.InsertCtx(context.Background(), id, seg, WriteOptions{})
}

// InsertCtx is Insert with a context and per-write options.
func (db *ShardedDB) InsertCtx(ctx context.Context, id ObjectID, seg Segment, opts WriteOptions) error {
	return db.ApplyUpdates(ctx, []MotionUpdate{{ID: id, Segment: seg}}, opts)
}

// Delete removes the motion update of an object that started at t0 from
// its owner shard. It returns ErrNotFound if no such segment is indexed.
func (db *ShardedDB) Delete(id ObjectID, t0 float64) error {
	return db.DeleteCtx(context.Background(), id, t0, WriteOptions{})
}

// DeleteCtx is Delete with a context and per-write options.
func (db *ShardedDB) DeleteCtx(ctx context.Context, id ObjectID, t0 float64, opts WriteOptions) error {
	return db.ApplyUpdates(ctx, []MotionUpdate{{ID: id, Segment: Segment{T0: t0}, Delete: true}}, opts)
}

// ApplyUpdates applies a batch of motion updates as one write. The batch
// is partitioned by owner shard and each shard's portion applies under
// that shard's lock alone, in slice order within the shard — so
// concurrent batches touching disjoint shards proceed fully in
// parallel, and readers of untouched shards are never blocked.
// Cross-shard order within one batch is unspecified; per-object order
// is preserved (an object lives on exactly one shard).
//
// With per-shard WALs armed (ShardOptions.WAL) every shard's sub-batch
// is appended to that shard's log as ONE record, under the same lock
// acquisition that applies it to the shard's tree, then the call waits
// according to opts.Durability — fsyncs on the touched logs run in
// parallel. Each shard's sub-batch is crash-atomic: recovery replays
// the whole record or none of it. Cross-shard atomicity is NOT
// promised, across crashes or live: shards log and apply independently,
// and an error on one shard (including ErrNotFound from a delete of a
// missing segment) does not undo sub-batches already applied — and
// logged — on other shards.
//
// Without logs, explicit DurabilityGroupCommit/DurabilitySync requests
// fail with ErrNoWAL; DurabilityDefault and DurabilityAsync apply in
// memory as before.
func (db *ShardedDB) ApplyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error {
	if len(updates) == 0 {
		return nil
	}
	ws := beginWriteSpan(ctx)
	err := db.applyUpdates(ctx, updates, opts, &ws, true)
	ws.finish(len(updates), err)
	return err
}

// applyUpdates is the batch write path. gated controls the degraded
// read-only check; the maintenance probe passes false to attempt a write
// while the database is degraded. The batch is partitioned by owner
// shard, and each touched shard — under its own write lock, on the
// engine's worker pool — runs the shared appendAndApply on its part
// (validate, append when logs are armed, apply). The durability wait
// runs after every shard lock is released.
func (db *ShardedDB) applyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions, ws *writeSpan, gated bool) error {
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.engine.CostSnapshot)
	defer finish()
	// db.wals is immutable after open: requesting an explicit durability
	// level with no logs armed fails here, before anything is applied.
	if err := checkDurability(opts.Durability, db.wals != nil); err != nil {
		return err
	}
	n := db.engine.Shards()
	mark := ws.now()
	parts, segs, err := partitionBatch(updates, db.dims, n)
	ws.stage(stageValidate, ws.since(mark))
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	db.mu.RLock()
	if gated {
		if err := db.health.gate(); err != nil {
			db.mu.RUnlock()
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		db.mu.RUnlock()
		return err
	}
	touched := make([]bool, n)
	for i, p := range parts {
		touched[i] = len(p) > 0
	}
	// lsns[i] records shard i's appended record (0 = shard untouched or
	// unlogged); the durability wait covers exactly these.
	lsns := make([]uint64, n)
	var checkNS, appendNS atomic.Int64
	mark = ws.now()
	err = db.engine.UpdateShards(touched, func(i int, sh *shard.Shard) error {
		var log *wal.Log
		if db.wals != nil {
			log = db.wals[i]
		}
		lsn, check, appendDur, err := appendAndApply(ws, sh.Tree, log, db.dims, parts[i], segs[i])
		lsns[i] = lsn
		checkNS.Add(int64(check))
		appendNS.Add(int64(appendDur))
		return err
	})
	ws.applyStages(ws.since(mark), time.Duration(checkNS.Load()), time.Duration(appendNS.Load()), db.wals != nil)
	db.mu.RUnlock()
	return finishWrite(&db.health, err, opts.Durability, db.wals, lsns, ws)
}

// BulkLoad partitions the segment set by owner shard and bulk-loads every
// shard in parallel, replacing current contents. The db must be empty.
//
// Deprecated: the map form loses insertion order. Use BulkLoadUpdates.
func (db *ShardedDB) BulkLoad(segs map[ObjectID][]Segment) error {
	return db.BulkLoadUpdates(sortedUpdates(segs))
}

// BulkLoadUpdates is BulkLoadCtx without a context: the order-preserving
// bulk load form sharing MotionUpdate with ApplyUpdates.
func (db *ShardedDB) BulkLoadUpdates(updates []MotionUpdate) error {
	return db.BulkLoadCtx(context.Background(), updates, WriteOptions{})
}

// BulkLoadCtx bulk-loads an ordered batch into every shard in parallel,
// replacing current contents; the database must be empty and the batch
// must contain no deletions. Unlike the per-shard data writes it holds
// the database lock exclusively: every shard's tree is swapped at once.
func (db *ShardedDB) BulkLoadCtx(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error {
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.engine.CostSnapshot)
	defer finish()
	entries, err := bulkEntries(updates, db.dims)
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
	return db.health.note(db.engine.BulkLoad(entries))
}

// Snapshot answers one spatio-temporal range query across all shards.
func (db *ShardedDB) Snapshot(view Rect, t0, t1 float64) ([]Result, error) {
	return db.SnapshotCtx(context.Background(), view, t0, t1, QueryOptions{})
}

// SnapshotCtx is Snapshot with cooperative cancellation and per-query
// options; every shard's traversal checks the context at node-visit
// granularity.
func (db *ShardedDB) SnapshotCtx(ctx context.Context, view Rect, t0, t1 float64, opts QueryOptions) ([]Result, error) {
	box, err := toBoxDims(view, db.dims)
	if err != nil {
		return nil, err
	}
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.engine.CostSnapshot)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ms, err := db.engine.Snapshot(ctx, box, geom.Interval{Lo: t0, Hi: t1}, opts.Limit)
	if err != nil {
		return nil, err
	}
	return fromRangeMatches(ms), nil
}

// KNN returns the k objects nearest to point at time t, k-way merging the
// per-shard best-first searches.
func (db *ShardedDB) KNN(point []float64, t float64, k int) ([]Neighbor, error) {
	return db.KNNCtx(context.Background(), point, t, k, QueryOptions{})
}

// KNNCtx is KNN with cooperative cancellation and per-query options.
func (db *ShardedDB) KNNCtx(ctx context.Context, point []float64, t float64, k int, opts QueryOptions) ([]Neighbor, error) {
	if opts.Limit > 0 && opts.Limit < k {
		k = opts.Limit
	}
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.engine.CostSnapshot)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	nbs, err := db.engine.KNN(ctx, geom.Point(point), t, k)
	if err != nil {
		return nil, err
	}
	return fromNeighbors(nbs), nil
}

// Within finds every pair of objects whose positions at time t lie within
// delta of each other, running the per-shard self-joins and all
// cross-shard joins in parallel. Pairs are reported once, with A < B.
func (db *ShardedDB) Within(delta, t float64) ([]Pair, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pairs, err := db.engine.SelfJoin(delta, t)
	if err != nil {
		return nil, err
	}
	return fromJoinPairs(pairs), nil
}

// JoinWith finds every pair (a ∈ db, b ∈ other) within delta of each
// other at time t. Both databases must have the same dimensionality.
// Only the receiver is read-locked; concurrent writes to other
// synchronize at its index level, so they may land mid-join.
func (db *ShardedDB) JoinWith(other *ShardedDB, delta, t float64) ([]Pair, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pairs, err := db.engine.CrossJoin(other.engine, delta, t)
	if err != nil {
		return nil, err
	}
	return fromJoinPairs(pairs), nil
}

func fromJoinPairs(pairs []core.JoinPair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{
			A: ObjectID(p.A), B: ObjectID(p.B),
			SegmentA: fromSegment(p.SegA), SegmentB: fromSegment(p.SegB),
			Dist: p.Dist,
		}
	}
	return out
}

// ShardedPredictiveSession is a predictive dynamic query over a sharded
// database: one per-shard cursor each, merged in order of appearance.
// Not safe for concurrent use by multiple goroutines.
type ShardedPredictiveSession struct {
	pdq *shard.PDQ
}

// PredictiveQuery registers an observer trajectory and starts a
// predictive dynamic query over every shard.
func (db *ShardedDB) PredictiveQuery(waypoints []Waypoint, opts PredictiveOptions) (*ShardedPredictiveSession, error) {
	traj, err := buildTrajectory(waypoints, db.dims, opts.Slack)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	pdq, err := db.engine.NewPDQ(traj, core.PDQOptions{
		LiveUpdates:        opts.Live,
		RebuildOnRootSplit: opts.RebuildOnRootSplit,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedPredictiveSession{pdq: pdq}, nil
}

// Next returns the next object becoming visible during [t0, t1] across
// all shards, or nil when no further object appears in that window.
func (s *ShardedPredictiveSession) Next(t0, t1 float64) (*Result, error) {
	r, err := s.pdq.GetNext(t0, t1)
	if err != nil || r == nil {
		return nil, err
	}
	out := fromResult(*r)
	return &out, nil
}

// Fetch returns every object becoming visible during [t0, t1].
func (s *ShardedPredictiveSession) Fetch(t0, t1 float64) ([]Result, error) {
	rs, err := s.pdq.Drain(t0, t1)
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Close releases every per-shard cursor.
func (s *ShardedPredictiveSession) Close() { s.pdq.Close() }

// ShardedNonPredictiveSession is a non-predictive dynamic query over a
// sharded database. Not safe for concurrent use by multiple goroutines.
type ShardedNonPredictiveSession struct {
	db   *ShardedDB
	npdq *shard.NPDQ
}

// NonPredictiveQuery starts a non-predictive dynamic query session with
// one per-shard sub-session.
func (db *ShardedDB) NonPredictiveQuery(opts NonPredictiveOptions) *ShardedNonPredictiveSession {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &ShardedNonPredictiveSession{
		db: db,
		npdq: db.engine.NewNPDQ(core.NPDQOptions{
			TrackIDs:     opts.TrackIDs,
			ExactAnswers: opts.ExactAnswers,
		}),
	}
}

// Snapshot evaluates the next snapshot of the dynamic query on every
// shard in parallel and returns the additional answers not delivered by
// the previous snapshot.
func (s *ShardedNonPredictiveSession) Snapshot(view Rect, t0, t1 float64) ([]Result, error) {
	box, err := toBoxDims(view, s.db.dims)
	if err != nil {
		return nil, err
	}
	rs, err := s.npdq.Next(box, geom.Interval{Lo: t0, Hi: t1})
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Reset forgets every shard's previous snapshot (observer teleported).
func (s *ShardedNonPredictiveSession) Reset() { s.npdq.Reset() }

// ShardedAdaptiveSession is an adaptive dynamic query over a sharded
// database; each shard predicts and hands off independently. Not safe
// for concurrent use.
type ShardedAdaptiveSession struct {
	db *ShardedDB
	a  *shard.Adaptive
}

// AdaptiveQuery starts an adaptive dynamic query session.
func (db *ShardedDB) AdaptiveQuery(opts AdaptiveOptions) (*ShardedAdaptiveSession, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	a, err := db.engine.NewAdaptive(core.AdaptiveOptions{
		Slack:        opts.Slack,
		Horizon:      opts.Horizon,
		StableFrames: opts.StableFrames,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedAdaptiveSession{db: db, a: a}, nil
}

// Frame reports the observer's actual view for one frame and returns the
// newly visible objects, merged across shards.
func (s *ShardedAdaptiveSession) Frame(view Rect, t0, t1 float64) ([]Result, error) {
	box, err := toBoxDims(view, s.db.dims)
	if err != nil {
		return nil, err
	}
	rs, err := s.a.Frame(box, geom.Interval{Lo: t0, Hi: t1})
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Predictive reports whether every shard session is currently running on
// a predicted trajectory.
func (s *ShardedAdaptiveSession) Predictive() bool { return s.a.Predictive() }

// Handoffs reports the PDQ↔NPDQ switches summed across shards.
func (s *ShardedAdaptiveSession) Handoffs() int { return s.a.Switches() }

// Close releases every shard session.
func (s *ShardedAdaptiveSession) Close() { s.a.Close() }

// CountSeries evaluates the continuous COUNT(*) of a moving view, summing
// the per-shard series evaluated in parallel.
func (db *ShardedDB) CountSeries(waypoints []Waypoint, times []float64) ([]int, error) {
	traj, err := buildTrajectory(waypoints, db.dims, nil)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.CountSeries(traj, times)
}

// Predictive starts a predictive dynamic query in the interface form
// shared with DB.
func (db *ShardedDB) Predictive(waypoints []Waypoint, opts PredictiveOptions) (PredictiveCursor, error) {
	return db.PredictiveQuery(waypoints, opts)
}

// NonPredictive starts a non-predictive session in the interface form
// shared with DB.
func (db *ShardedDB) NonPredictive(opts NonPredictiveOptions) NonPredictiveCursor {
	return db.NonPredictiveQuery(opts)
}

// Adaptive starts an adaptive session in the interface form shared with
// DB.
func (db *ShardedDB) Adaptive(opts AdaptiveOptions) (AdaptiveCursor, error) {
	return db.AdaptiveQuery(opts)
}

// CostSnapshot returns the cost counters summed across shards.
func (db *ShardedDB) CostSnapshot() stats.Snapshot { return db.engine.CostSnapshot() }

// Cost returns the accumulated query cost counters summed across shards.
func (db *ShardedDB) Cost() CostReport { return costReport(db.engine.CostSnapshot()) }

// ShardCost returns shard i's own accumulated cost counters.
func (db *ShardedDB) ShardCost(i int) CostReport { return costReport(db.engine.ShardCost(i)) }

// ResetCost zeroes every shard's cost counters.
func (db *ShardedDB) ResetCost() { db.engine.ResetCost() }

func costReport(s stats.Snapshot) CostReport {
	return CostReport{
		DiskReads:     s.Reads(),
		LeafReads:     s.LeafReads,
		InternalReads: s.InternalReads,
		DistanceComps: s.DistanceComps,
		Results:       s.Results,
	}
}

// BufferStats reports the buffer-pool accounting summed across shards.
func (db *ShardedDB) BufferStats() BufferStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out BufferStats
	for i := 0; i < db.engine.Shards(); i++ {
		b := db.shardBufferStats(i)
		out.Hits += b.Hits
		out.Misses += b.Misses
		out.Evictions += b.Evictions
		out.WriteBacks += b.WriteBacks
		out.Len += b.Len
		out.Capacity += b.Capacity
	}
	return out
}

// ShardBufferStats reports shard i's own buffer-pool accounting.
func (db *ShardedDB) ShardBufferStats(i int) BufferStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.shardBufferStats(i)
}

func (db *ShardedDB) shardBufferStats(i int) BufferStats {
	return bufferStats(db.engine.Shard(i).Tree.Pool())
}

// BufferSegments reports per-segment buffer-pool accounting summed
// across shards by segment index (every shard's pool has the same
// segment layout).
func (db *ShardedDB) BufferSegments() []BufferSegmentStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []BufferSegmentStats
	for i := 0; i < db.engine.Shards(); i++ {
		segs := db.engine.Shard(i).Tree.Pool().SegmentStats()
		if out == nil {
			out = make([]BufferSegmentStats, len(segs))
		}
		for j, s := range segs {
			if j >= len(out) {
				break
			}
			out[j].Hits += s.Hits
			out[j].Misses += s.Misses
			out[j].Len += s.Len
			out[j].Capacity += s.Capacity
		}
	}
	return out
}

// Stats walks every shard and reports the aggregate index shape: node and
// segment counts summed, height and fanout taken as the maximum, fill
// factors weighted by node count.
func (db *ShardedDB) Stats() (IndexStats, error) {
	per, err := db.StatsByShard()
	if err != nil {
		return IndexStats{}, err
	}
	var out IndexStats
	var leafFill, intFill float64
	for _, st := range per {
		out.Segments += st.Segments
		out.LeafNodes += st.LeafNodes
		out.InternalNodes += st.InternalNodes
		if st.Height > out.Height {
			out.Height = st.Height
		}
		if st.LeafFanout > out.LeafFanout {
			out.LeafFanout = st.LeafFanout
		}
		if st.IntFanout > out.IntFanout {
			out.IntFanout = st.IntFanout
		}
		leafFill += st.AvgLeafFill * float64(st.LeafNodes)
		intFill += st.AvgIntFill * float64(st.InternalNodes)
	}
	if out.LeafNodes > 0 {
		out.AvgLeafFill = leafFill / float64(out.LeafNodes)
	}
	if out.InternalNodes > 0 {
		out.AvgIntFill = intFill / float64(out.InternalNodes)
	}
	return out, nil
}

// StatsByShard walks every shard and reports the per-shard index shapes,
// in shard order.
func (db *ShardedDB) StatsByShard() ([]IndexStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	per, err := db.engine.Stats()
	if err != nil {
		return nil, err
	}
	out := make([]IndexStats, len(per))
	for i, st := range per {
		out[i] = indexStats(st)
	}
	return out, nil
}

// Validate checks every shard's structural invariants (tests/tools).
func (db *ShardedDB) Validate() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Validate()
}

// RegisterMetrics exposes the per-shard gauges and fan-out latency
// histograms through a metric registry.
func (db *ShardedDB) RegisterMetrics(reg *obs.Registry) { db.engine.Register(reg) }

// Compile-time check: both database flavors present the same surface.
var (
	_ Database = (*DB)(nil)
	_ Database = (*ShardedDB)(nil)
)
