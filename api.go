package dynq

import (
	"context"
	"time"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/obs"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

// QueryOptions carries per-query knobs for the context-aware query entry
// points (SnapshotCtx, KNNCtx). The zero value means "no limit, no
// deadline, no stats" and matches the plain methods exactly. New knobs
// are added here rather than as new method parameters.
type QueryOptions struct {
	// Limit, when positive, caps the number of results returned. For
	// range queries the index traversal stops early once the cap is
	// reached; which results survive is deterministic for an unchanged
	// index but otherwise unspecified. For KNN it caps k.
	Limit int
	// Deadline, when positive, bounds the query's execution time: the
	// context is wrapped with this timeout and checked at node-visit
	// granularity, so an expired query returns context.DeadlineExceeded
	// within one page fetch.
	Deadline time.Duration
	// Stats, when non-nil, receives the query's cost-counter delta
	// (reads, distance computations, results, ...) when it completes.
	// Under concurrent queries on the same database the delta may include
	// work charged by overlapping operations.
	Stats func(stats.Snapshot)
}

// beginOp applies a per-operation deadline (when positive) and arms a
// stats sink (when non-nil) against the database's cumulative cost
// snapshot — the shared opening of every Ctx query and write; finish must
// be called (deferred) when the operation completes.
func beginOp(ctx context.Context, deadline time.Duration, sink func(stats.Snapshot), snap func() stats.Snapshot) (context.Context, func()) {
	cancel := func() {}
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	}
	if sink == nil {
		return ctx, cancel
	}
	before := snap()
	return ctx, func() {
		sink(snap().Sub(before))
		cancel()
	}
}

// SnapshotCtx is Snapshot with cooperative cancellation and per-query
// options. The context is checked once per index node visited, so a
// cancelled or expired query stops within one page fetch.
func (db *DB) SnapshotCtx(ctx context.Context, view Rect, t0, t1 float64, opts QueryOptions) ([]Result, error) {
	box, err := db.toBox(view)
	if err != nil {
		return nil, err
	}
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.counters.Snapshot)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ms, err := db.tree.RangeSearchCtx(ctx, box, geom.Interval{Lo: t0, Hi: t1},
		rtree.SearchOptions{Limit: opts.Limit}, &db.counters)
	if err != nil {
		return nil, err
	}
	return fromRangeMatches(ms), nil
}

// KNNCtx is KNN with cooperative cancellation and per-query options.
func (db *DB) KNNCtx(ctx context.Context, point []float64, t float64, k int, opts QueryOptions) ([]Neighbor, error) {
	if opts.Limit > 0 && opts.Limit < k {
		k = opts.Limit
	}
	ctx, finish := beginOp(ctx, opts.Deadline, opts.Stats, db.counters.Snapshot)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	nbs, err := core.KNNCtx(ctx, db.tree, geom.Point(point), t, k, &db.counters)
	if err != nil {
		return nil, err
	}
	return fromNeighbors(nbs), nil
}

// PredictiveCursor is the predictive dynamic query session surface shared
// by *PredictiveSession (single tree) and *ShardedPredictiveSession.
type PredictiveCursor interface {
	Next(t0, t1 float64) (*Result, error)
	Fetch(t0, t1 float64) ([]Result, error)
	Close()
}

// NonPredictiveCursor is the non-predictive session surface shared by
// *NonPredictiveSession and *ShardedNonPredictiveSession.
type NonPredictiveCursor interface {
	Snapshot(view Rect, t0, t1 float64) ([]Result, error)
	Reset()
}

// AdaptiveCursor is the adaptive session surface shared by
// *AdaptiveSession and *ShardedAdaptiveSession.
type AdaptiveCursor interface {
	Frame(view Rect, t0, t1 float64) ([]Result, error)
	Predictive() bool
	Close()
}

// Database is the query and write surface shared by *DB and *ShardedDB:
// everything a server needs to answer the protocol's operations without
// knowing whether one tree or many stand behind it.
type Database interface {
	Insert(id ObjectID, seg Segment) error
	InsertCtx(ctx context.Context, id ObjectID, seg Segment, opts WriteOptions) error
	Delete(id ObjectID, t0 float64) error
	DeleteCtx(ctx context.Context, id ObjectID, t0 float64, opts WriteOptions) error
	// ApplyUpdates applies a batch of motion updates as one write: the
	// high-rate ingest path. See the concrete types for atomicity and
	// durability semantics.
	ApplyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error
	BulkLoadUpdates(updates []MotionUpdate) error
	BulkLoadCtx(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error
	Snapshot(view Rect, t0, t1 float64) ([]Result, error)
	SnapshotCtx(ctx context.Context, view Rect, t0, t1 float64, opts QueryOptions) ([]Result, error)
	KNN(point []float64, t float64, k int) ([]Neighbor, error)
	KNNCtx(ctx context.Context, point []float64, t float64, k int, opts QueryOptions) ([]Neighbor, error)
	Predictive(waypoints []Waypoint, opts PredictiveOptions) (PredictiveCursor, error)
	NonPredictive(opts NonPredictiveOptions) NonPredictiveCursor
	Adaptive(opts AdaptiveOptions) (AdaptiveCursor, error)
	Stats() (IndexStats, error)
	CostSnapshot() stats.Snapshot
	BufferStats() BufferStats
	BufferSegments() []BufferSegmentStats
	// Degraded reports whether the database entered read-only mode after
	// persistent storage write failures (mutations return ErrReadOnly).
	Degraded() bool
	// SetReadOnly manually enters or clears read-only mode.
	SetReadOnly(on bool)
	// WALTelemetry snapshots the write-ahead logs' instrumentation with
	// rolling windows over the given spans (several logs merge into one
	// section); ok is false without a log.
	WALTelemetry(windows []time.Duration) (obs.WALTelemetry, bool)
	// RegisterWALMetrics exposes the logs' metrics in a registry,
	// reporting whether any log was present to register.
	RegisterWALMetrics(reg *obs.Registry) bool
	// MaintenanceTelemetry snapshots the self-healing maintenance loop;
	// ok is false when no loop is running.
	MaintenanceTelemetry() (obs.MaintenanceTelemetry, bool)
	// RegisterMaintenanceMetrics exposes the maintenance loop's counters
	// in a registry, reporting whether a loop was running to register.
	RegisterMaintenanceMetrics(reg *obs.Registry) bool
	Close() error
}

// Predictive starts a predictive dynamic query and returns it as the
// interface form shared with ShardedDB (PredictiveQuery returns the
// concrete session).
func (db *DB) Predictive(waypoints []Waypoint, opts PredictiveOptions) (PredictiveCursor, error) {
	return db.PredictiveQuery(waypoints, opts)
}

// NonPredictive starts a non-predictive session in the interface form
// shared with ShardedDB.
func (db *DB) NonPredictive(opts NonPredictiveOptions) NonPredictiveCursor {
	return db.NonPredictiveQuery(opts)
}

// Adaptive starts an adaptive session in the interface form shared with
// ShardedDB.
func (db *DB) Adaptive(opts AdaptiveOptions) (AdaptiveCursor, error) {
	return db.AdaptiveQuery(opts)
}
