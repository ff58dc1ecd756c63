// Package dynq is a spatio-temporal database engine for mobile objects
// with dynamic (continuously moving) queries, reproducing "Dynamic
// Queries over Mobile Objects" (Lazaridis, Porkaew, Mehrotra; EDBT 2002).
//
// Mobile objects report piecewise-linear motion updates; each update is a
// motion segment indexed by its space-time bounding box in a disk-based
// R-tree (Native Space Indexing), with exact segment geometry at the leaf
// level. On top of the index, three query strategies answer a moving
// observer's continuous view query:
//
//   - Snapshot: an independent spatio-temporal range query (the paper's
//     baseline when repeated per frame).
//   - PredictiveQuery (PDQ): the observer registers a trajectory; results
//     stream out incrementally in order of appearance, each index node is
//     read at most once, and concurrent insertions are merged in live.
//   - NonPredictiveQuery (NPDQ): no trajectory is known; each snapshot
//     reuses the previous snapshot's coverage to prune index nodes.
//
// A typical session:
//
//	db, _ := dynq.Open(dynq.Options{})
//	db.Insert(42, dynq.Segment{T0: 0, T1: 1, From: []float64{1, 2}, To: []float64{2, 3}})
//	res, _ := db.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, 0, 1)
//
// See the examples directory for a visualization fly-through (PDQ), a
// vicinity monitor under live updates (NPDQ), and a quickstart.
package dynq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/wal"
)

// ObjectID identifies a mobile object across all of its motion updates.
type ObjectID = uint64

// Rect is an axis-aligned spatial rectangle; Min and Max must have the
// database's dimensionality.
type Rect struct {
	Min, Max []float64
}

// Segment is one motion update: the object moved linearly from From at
// time T0 to To at time T1.
type Segment struct {
	T0, T1   float64
	From, To []float64
}

// Result is one object delivered by a query: the motion segment that made
// it visible and the [Appear, Disappear] interval during which it stays
// in the (possibly moving) query window.
type Result struct {
	ID        ObjectID
	Segment   Segment
	Appear    float64
	Disappear float64
}

// Neighbor is one k-nearest-neighbor answer.
type Neighbor struct {
	ID      ObjectID
	Segment Segment
	Dist    float64
}

// SplitPolicy names an R-tree node splitting algorithm.
type SplitPolicy string

// Split policies accepted in Options.
const (
	SplitQuadratic SplitPolicy = "quadratic" // Guttman quadratic (default)
	SplitLinear    SplitPolicy = "linear"    // Guttman linear
	SplitRStar     SplitPolicy = "rstar"     // R*-style axis split
)

// Options configure a database.
type Options struct {
	// Dims is the spatial dimensionality (default 2).
	Dims int
	// DualTimeAxes stores segment start- and end-time ranges separately
	// in internal index entries. Required for non-predictive dynamic
	// queries to prune effectively; costs internal fanout (113 vs 145).
	DualTimeAxes bool
	// Split selects the R-tree split policy (default quadratic).
	Split SplitPolicy
	// Path, when non-empty, stores index pages in a file; otherwise the
	// index lives in memory. Open CREATES the file, truncating any
	// existing contents — use OpenFile to reattach a previously written
	// index.
	Path string
	// BufferPages enables a server-side LRU page buffer of the given
	// capacity. The paper's experiments run bufferless (0): the client,
	// not the server, caches results. With WALPath set, 0 selects a
	// default buffer instead (see defaultWALBufferPages): a logged
	// database must keep post-checkpoint writes in memory so a crash
	// cannot tear the committed base file the log replays onto.
	BufferPages int
	// DegradeAfter is the number of consecutive storage write failures
	// after which the database degrades to read-only mode (mutations
	// return ErrReadOnly until SetReadOnly(false)). 0 means the default
	// of 3; a negative value disables degradation.
	DegradeAfter int
	// WALPath, when non-empty, arms a write-ahead log at that path: every
	// ApplyUpdates/Insert/Delete appends a checksummed record before
	// touching the index, Sync checkpoints the log, and reopening through
	// OpenFileRecover replays whatever the last page commit missed. Open
	// creates the log fresh (like Path, truncating any existing file);
	// the conventional sidecar path "<Path>.wal" is what OpenFileRecover
	// detects automatically.
	WALPath string
	// GroupCommitWindow is how long a group-commit leader waits for
	// concurrent writers to pile into its fsync (0 = the 2ms default; a
	// negative value disables coalescing — every commit round fsyncs
	// immediately). Only meaningful with WALPath set.
	GroupCommitWindow time.Duration
	// Maintenance configures the self-healing maintenance loop
	// (auto-checkpoint policy, background scrub, degraded-mode recovery
	// probe). The zero value disables it.
	Maintenance MaintenanceOptions
}

// DB is a mobile-object database: an NSI R-tree plus the dynamic query
// engines.
//
// Concurrency: read-only operations (Snapshot, SnapshotCtx, KNN, KNNCtx,
// Within, JoinWith, CountSeries, Stats, Validate, Len) hold a shared lock
// and run in parallel with each other; mutating operations (Insert,
// Delete, BulkLoad, Sync) hold the exclusive lock, so every query
// observes the index either entirely before or entirely after a given
// write. Stats accessors (Cost, CostSnapshot, BufferStats) are atomic and
// lock-free. Session types (PredictiveQuery, NonPredictiveQuery,
// AdaptiveQuery) are each single-goroutine but may run alongside queries
// and writers, synchronizing at index-node granularity as the paper's
// live-update semantics require.
type DB struct {
	// mu isolates whole operations: queries share it, writers own it.
	// The index beneath has its own reader-writer lock at node-load
	// granularity, used by dynamic query sessions.
	mu          sync.RWMutex
	tree        *rtree.Tree
	cfg         rtree.Config
	store       pager.Store
	counters    stats.Counters
	bufferPages int
	health      degradeState
	// wal is the armed write-ahead log, nil when the database runs
	// without one (Options.WALPath empty and no sidecar found on open).
	wal *wal.Log
	// appliedLSN is the WAL position the committed page state had
	// absorbed when the database was opened; replay starts above it.
	appliedLSN uint64
	// recovery holds the open-time verification report when the database
	// was opened through OpenFileRecover, nil otherwise.
	recovery *RecoveryReport
	// maint is the self-healing maintenance loop, nil when
	// Options.Maintenance left it disabled.
	maint *maintainer
}

// LastRecovery returns the report from open-time recovery, or nil when
// the database was not opened through OpenFileRecover.
func (db *DB) LastRecovery() *RecoveryReport { return db.recovery }

// defaultWALBufferPages is the page buffer capacity a WAL-armed database
// gets when Options.BufferPages is left 0. Unbuffered writes rewrite
// committed pages in place; after a crash the page file then carries
// epochs newer than its committed header — detected as corruption on
// open, leaving the log nothing intact to replay onto. Buffered, dirty
// pages stay in memory between checkpoints and the committed base
// survives any crash.
const defaultWALBufferPages = 1024

// walBufferPages resolves a requested page-buffer capacity: a logged
// database that asked for none gets defaultWALBufferPages.
func walBufferPages(requested int, logged bool) int {
	if logged && requested == 0 {
		return defaultWALBufferPages
	}
	return requested
}

// Open creates a database. With Options.Path set, a new page file is
// created, TRUNCATING any existing file at that path; use OpenFile to
// reattach an existing one.
func Open(opts Options) (*DB, error) {
	cfg, err := opts.toConfig()
	if err != nil {
		return nil, err
	}
	bufferPages := walBufferPages(opts.BufferPages, opts.WALPath != "")
	var store pager.Store
	if opts.Path != "" {
		fs, err := pager.CreateFileStore(opts.Path)
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = pager.NewMemStore()
	}
	tree, err := rtree.NewBuffered(cfg, store, bufferPages)
	if err != nil {
		return nil, err
	}
	db := &DB{tree: tree, cfg: cfg, store: store, bufferPages: bufferPages}
	db.health.after = int32(opts.DegradeAfter)
	tree.SetCounters(&db.counters)
	if err := commitBase(tree, store); err != nil {
		store.Close()
		return nil, err
	}
	if opts.WALPath != "" {
		w, err := wal.Create(opts.WALPath, wal.Options{GroupCommitWindow: opts.GroupCommitWindow})
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("dynq: create wal: %w", err)
		}
		db.wal = w
	}
	db.maint = startMaintainer(db, opts.Maintenance)
	return db, nil
}

func (o Options) toConfig() (rtree.Config, error) {
	cfg := rtree.DefaultConfig()
	if o.Dims < 0 {
		return cfg, fmt.Errorf("dynq: Options.Dims must be positive, got %d", o.Dims)
	}
	if o.BufferPages < 0 {
		return cfg, fmt.Errorf("dynq: Options.BufferPages must be >= 0, got %d", o.BufferPages)
	}
	if o.Dims != 0 {
		cfg.Dims = o.Dims
	}
	cfg.DualTime = o.DualTimeAxes
	switch o.Split {
	case "", SplitQuadratic:
		cfg.Split = rtree.SplitQuadratic
	case SplitLinear:
		cfg.Split = rtree.SplitLinear
	case SplitRStar:
		cfg.Split = rtree.SplitRStarAxis
	default:
		return cfg, fmt.Errorf("dynq: unknown split policy %q", o.Split)
	}
	return cfg, nil
}

// Close releases the underlying page store and the write-ahead log.
// Close does NOT Sync: with a WAL armed the log itself carries the
// unsynced tail across the restart; without one, unsynced writes are
// lost as before.
func (db *DB) Close() error {
	db.maint.stop()
	return errors.Join(closeLogs(db.logs()), db.store.Close())
}

// WALStats returns the armed write-ahead log's counters, or zero when no
// WAL is armed.
func (db *DB) WALStats() (wal.Stats, bool) {
	if db.wal == nil {
		return wal.Stats{}, false
	}
	return db.wal.Stats(), true
}

// logs returns the armed write-ahead log as the engines' shared
// one-log-per-shard view: one entry, or nil without a WAL.
func (db *DB) logs() []*wal.Log {
	if db.wal == nil {
		return nil
	}
	return []*wal.Log{db.wal}
}

// Dims returns the spatial dimensionality.
func (db *DB) Dims() int { return db.cfg.Dims }

// Len returns the number of indexed motion segments.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.Size()
}

// Insert records one motion update for an object. Coordinates are stored
// at float32 precision (the on-disk key format). It is a thin wrapper
// over ApplyUpdates with default (group-commit) durability; batch
// updates through ApplyUpdates when ingesting at rate.
func (db *DB) Insert(id ObjectID, seg Segment) error {
	return db.InsertCtx(context.Background(), id, seg, WriteOptions{})
}

// BulkLoad builds the index from a segment set at a 0.5 fill factor,
// replacing any current contents. It is far faster than repeated Insert
// for large historical loads. The db must be empty.
//
// Deprecated: the map form loses input order. Use BulkLoadUpdates (or
// BulkLoadCtx), which shares the ordered MotionUpdate batch form with
// ApplyUpdates; this wrapper flattens the map sorted by (object, start
// time) and delegates.
func (db *DB) BulkLoad(segs map[ObjectID][]Segment) error {
	return db.BulkLoadUpdates(sortedUpdates(segs))
}

// Delete removes the motion update of an object that started at t0.
// It returns ErrNotFound if no such segment is indexed. Like Insert it
// is a thin wrapper over ApplyUpdates.
func (db *DB) Delete(id ObjectID, t0 float64) error {
	return db.DeleteCtx(context.Background(), id, t0, WriteOptions{})
}

// ErrNotFound is returned by Delete for a missing segment.
var ErrNotFound = rtree.ErrNotFound

// Snapshot answers one spatio-temporal range query: all objects whose
// trajectory passes through view during [t0, t1].
func (db *DB) Snapshot(view Rect, t0, t1 float64) ([]Result, error) {
	return db.SnapshotCtx(context.Background(), view, t0, t1, QueryOptions{})
}

// KNN returns the k objects nearest to point at time t.
func (db *DB) KNN(point []float64, t float64, k int) ([]Neighbor, error) {
	return db.KNNCtx(context.Background(), point, t, k, QueryOptions{})
}

// fromRangeMatches converts range-search matches to the public result form.
func fromRangeMatches(ms []rtree.Match) []Result {
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{
			ID:        ObjectID(m.ID),
			Segment:   fromSegment(m.Seg),
			Appear:    m.Overlap.Lo,
			Disappear: m.Overlap.Hi,
		}
	}
	return out
}

// fromNeighbors converts nearest-neighbor answers to the public form.
func fromNeighbors(nbs []core.Neighbor) []Neighbor {
	out := make([]Neighbor, len(nbs))
	for i, n := range nbs {
		out[i] = Neighbor{ID: ObjectID(n.ID), Segment: fromSegment(n.Seg), Dist: n.Dist}
	}
	return out
}

// CostReport is the cumulative query cost since the last ResetCost, in
// the paper's metrics.
type CostReport struct {
	DiskReads     int64 // index nodes fetched
	LeafReads     int64 // of which leaf-level
	InternalReads int64 // of which internal-level
	DistanceComps int64 // geometric predicate evaluations
	Results       int64 // objects returned
}

// CostSnapshot returns the raw cumulative counter snapshot (all paper
// metrics plus buffer hits, page writes, and pruned nodes). Two
// snapshots bracket an operation: after.Sub(before) is its cost.
func (db *DB) CostSnapshot() stats.Snapshot { return db.counters.Snapshot() }

// BufferStats describes the server-side page buffer pool.
type BufferStats struct {
	Hits       int64 // page requests served from the pool
	Misses     int64 // page requests that went to the store
	Evictions  int64 // frames displaced by LRU replacement
	WriteBacks int64 // dirty frames written back
	Len        int   // currently buffered frames
	Capacity   int   // frame capacity (0 = bufferless pass-through)
}

// HitRatio returns hits/(hits+misses), or 0 when no requests were made.
func (b BufferStats) HitRatio() float64 {
	total := b.Hits + b.Misses
	if total == 0 {
		return 0
	}
	return float64(b.Hits) / float64(total)
}

// BufferStats reports the buffer pool's live accounting. Safe to call
// concurrently with queries.
func (db *DB) BufferStats() BufferStats {
	db.mu.RLock()
	p := db.tree.Pool()
	db.mu.RUnlock()
	return bufferStats(p)
}

func bufferStats(p *pager.BufferPool) BufferStats {
	return BufferStats{
		Hits:       p.Hits(),
		Misses:     p.Misses(),
		Evictions:  p.Evictions(),
		WriteBacks: p.WriteBacks(),
		Len:        p.Len(),
		Capacity:   p.Capacity(),
	}
}

// BufferSegmentStats is a point-in-time view of one lock segment of the
// buffer pool, for contention observability: a cold or thrashing segment
// shows up as a hit-ratio outlier.
type BufferSegmentStats struct {
	Hits     int64
	Misses   int64
	Len      int
	Capacity int
}

// HitRatio returns hits/(hits+misses), or 0 when no requests were made.
func (b BufferSegmentStats) HitRatio() float64 {
	total := b.Hits + b.Misses
	if total == 0 {
		return 0
	}
	return float64(b.Hits) / float64(total)
}

// BufferSegments reports the buffer pool's per-segment accounting, in
// segment order (empty for a bufferless pass-through pool). Safe to call
// concurrently with queries.
func (db *DB) BufferSegments() []BufferSegmentStats {
	db.mu.RLock()
	p := db.tree.Pool()
	db.mu.RUnlock()
	segs := p.SegmentStats()
	out := make([]BufferSegmentStats, len(segs))
	for i, s := range segs {
		out[i] = BufferSegmentStats{Hits: s.Hits, Misses: s.Misses, Len: s.Len, Capacity: s.Capacity}
	}
	return out
}

// Cost returns the accumulated query cost counters.
func (db *DB) Cost() CostReport { return costReport(db.counters.Snapshot()) }

// ResetCost zeroes the cost counters.
func (db *DB) ResetCost() { db.counters.Reset() }

// IndexStats describes the physical index shape.
type IndexStats struct {
	Height        int
	Segments      int
	LeafNodes     int
	InternalNodes int
	LeafFanout    int
	IntFanout     int
	AvgLeafFill   float64
	AvgIntFill    float64
}

// Stats walks the index and reports its shape.
func (db *DB) Stats() (IndexStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st, err := db.tree.Stats()
	if err != nil {
		return IndexStats{}, err
	}
	return indexStats(st), nil
}

func indexStats(st rtree.TreeStats) IndexStats {
	return IndexStats{
		Height:        st.Height,
		Segments:      st.Segments,
		LeafNodes:     st.LeafNodes,
		InternalNodes: st.InternalNodes,
		LeafFanout:    st.MaxLeafFan,
		IntFanout:     st.MaxIntFan,
		AvgLeafFill:   st.AvgLeafFill,
		AvgIntFill:    st.AvgIntFill,
	}
}

// Validate checks the index's structural invariants (tests/tools).
func (db *DB) Validate() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.Validate()
}

func toSegmentDims(s Segment, d int) (geom.Segment, error) {
	if len(s.From) != d || len(s.To) != d {
		return geom.Segment{}, fmt.Errorf("dynq: segment endpoints must have %d dims", d)
	}
	if s.T1 < s.T0 {
		return geom.Segment{}, fmt.Errorf("dynq: segment times inverted (%g > %g)", s.T0, s.T1)
	}
	return geom.Segment{
		T:     geom.Interval{Lo: s.T0, Hi: s.T1},
		Start: append(geom.Point(nil), s.From...),
		End:   append(geom.Point(nil), s.To...),
	}, nil
}

func fromSegment(g geom.Segment) Segment {
	return Segment{
		T0:   g.T.Lo,
		T1:   g.T.Hi,
		From: append([]float64(nil), g.Start...),
		To:   append([]float64(nil), g.End...),
	}
}

func (db *DB) toBox(r Rect) (geom.Box, error) {
	return toBoxDims(r, db.Dims())
}

func toBoxDims(r Rect, d int) (geom.Box, error) {
	if len(r.Min) != d || len(r.Max) != d {
		return nil, fmt.Errorf("dynq: rect must have %d dims", d)
	}
	b := make(geom.Box, d)
	for i := 0; i < d; i++ {
		b[i] = geom.Interval{Lo: r.Min[i], Hi: r.Max[i]}
	}
	return b, nil
}

// fromResults converts dynamic-query answers to the public form.
func fromResults(rs []core.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = fromResult(r)
	}
	return out
}

func fromResult(r core.Result) Result {
	return Result{
		ID:        ObjectID(r.ID),
		Segment:   fromSegment(r.Seg),
		Appear:    r.Appear,
		Disappear: r.Disappear,
	}
}
