package dynq

// Per-shard write-ahead logging for the sharded engine.
//
// A sharded database at Path owns one page file and one log sidecar per
// shard:
//
//	<Path>.shard0       <Path>.shard0.wal
//	<Path>.shard1       <Path>.shard1.wal
//	...                 ...
//
// Each log covers exactly its shard: a write batch splits by owner
// shard, each sub-batch appends to its shard's log as one record under
// that shard's write lock, and recovery replays each log against its
// shard file independently. There is no cross-shard ordering in the
// logs and none is needed — an object lives on exactly one shard, so a
// record on shard i never depends on state held by shard j.
//
// Sync checkpoints the logs shard by shard with the same discipline as
// the single-tree DB: flush the shard's dirty pages, commit its
// metadata carrying the shard log's highest applied LSN, then truncate
// the log to that LSN. Taking the database lock exclusively excludes
// every writer (writers hold it shared), which is what Checkpoint's
// no-concurrent-Append precondition requires.

import (
	"fmt"
	"os"
	"time"

	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/shard"
	"dynq/internal/wal"
)

// ShardRecoverOptions tune OpenShardedRecover. Shards is required and
// must match the count the database was created with; everything else
// mirrors RecoverOptions per shard.
type ShardRecoverOptions struct {
	// Shards is the number of partitions the database was created with.
	// A mismatch against the on-disk shard file set is an error: objects
	// are placed by hash-mod-shards, so opening under a different count
	// would silently misroute every lookup.
	Shards int
	// Workers bounds the worker pool (see ShardOptions.Workers).
	Workers int
	// WAL force-arms a log sidecar per shard (created when missing,
	// replayed when not). Without it, logs are auto-detected: if ANY
	// "<path>.shard<i>.wal" exists, every shard is armed — a database is
	// logged as a whole or not at all.
	WAL bool
	// GroupCommitWindow is each armed log's coalescing window (see
	// Options.GroupCommitWindow).
	GroupCommitWindow time.Duration
	// BufferPages gives every shard its own LRU page buffer (see
	// Options.BufferPages); defaults to the WAL buffering floor when
	// logs are armed.
	BufferPages int
	// DegradeAfter is the consecutive-write-failure threshold (see
	// Options.DegradeAfter).
	DegradeAfter int
	// Maintenance configures the self-healing maintenance loop (see
	// Options.Maintenance).
	Maintenance MaintenanceOptions
}

// OpenShardedRecover reopens a sharded database created by OpenSharded
// with Options.Path, verifying each shard's page file through the same
// recovery machinery as OpenFileRecover and replaying each shard's log
// sidecar independently. The returned reports describe the per-shard
// verification in shard order (MergeRecoveryReports folds them into one
// for single-report consumers).
//
// When no shard files exist yet the database is created fresh — so a
// server can point at a path and get create-or-recover semantics — and
// the returned reports are nil.
func OpenShardedRecover(path string, opts ShardRecoverOptions) (*ShardedDB, []*RecoveryReport, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("dynq: OpenShardedRecover requires a path")
	}
	if opts.Shards < 1 {
		return nil, nil, fmt.Errorf("dynq: ShardRecoverOptions.Shards must be >= 1, got %d", opts.Shards)
	}
	if opts.BufferPages < 0 {
		return nil, nil, fmt.Errorf("dynq: ShardRecoverOptions.BufferPages must be >= 0, got %d", opts.BufferPages)
	}
	existing, err := existingShardFiles(path)
	if err != nil {
		return nil, nil, err
	}
	if len(existing) == 0 {
		db, err := OpenSharded(ShardOptions{
			Options: Options{
				Path:              path,
				GroupCommitWindow: opts.GroupCommitWindow,
				BufferPages:       opts.BufferPages,
				DegradeAfter:      opts.DegradeAfter,
				Maintenance:       opts.Maintenance,
			},
			Shards:  opts.Shards,
			Workers: opts.Workers,
			WAL:     opts.WAL,
		})
		return db, nil, err
	}
	if len(existing) != opts.Shards {
		return nil, nil, fmt.Errorf("dynq: database at %q was created with %d shards, opened with %d: the shard count cannot change (objects are placed by hash mod shards, so a different count would misroute them); reopen with -shards %d or rebuild",
			path, len(existing), opts.Shards, len(existing))
	}

	// Recover every shard's page file first; only then decide on logs.
	trees := make([]*rtree.Tree, opts.Shards)
	stores := make([]pager.Store, opts.Shards)
	appliedLSNs := make([]uint64, opts.Shards)
	reps := make([]*RecoveryReport, opts.Shards)
	var wals []*wal.Log
	var cfg rtree.Config
	opened := false
	defer func() {
		if !opened {
			closeLogs(wals)
			for _, s := range stores {
				if s != nil {
					s.Close()
				}
			}
		}
	}()
	for i := 0; i < opts.Shards; i++ {
		fs, err := pager.OpenFileStore(shardFilePath(path, i))
		if err != nil {
			return nil, nil, fmt.Errorf("dynq: open shard %d: %w", i, err)
		}
		stores[i] = fs
		tree, m, lsn, rep, err := recoverStoreTree(fs, fs)
		if err != nil {
			return nil, nil, fmt.Errorf("dynq: recover shard %d: %w", i, err)
		}
		if i == 0 {
			cfg = m.Config
		} else if m.Config != cfg {
			return nil, nil, fmt.Errorf("%w: shard %d config %+v disagrees with shard 0 config %+v", ErrCorrupt, i, m.Config, cfg)
		}
		trees[i], appliedLSNs[i], reps[i] = tree, lsn, rep
	}

	// Logs arm as a set: the WAL flag forces them, otherwise any existing
	// sidecar arms all shards (creating the missing ones), so the write
	// path never has to reason about a half-logged database.
	armed := opts.WAL
	for i := 0; i < opts.Shards && !armed; i++ {
		if _, serr := os.Stat(shardWALPath(path, i)); serr == nil {
			armed = true
		}
	}
	bufferPages := walBufferPages(opts.BufferPages, armed)
	if bufferPages > 0 {
		for _, tree := range trees {
			if err := tree.UseBuffer(bufferPages); err != nil {
				return nil, nil, err
			}
		}
	}
	if armed {
		wals = make([]*wal.Log, opts.Shards)
		for i := range wals {
			wals[i], err = replayLog(shardWALPath(path, i), wal.Options{GroupCommitWindow: opts.GroupCommitWindow},
				trees[i], cfg.Dims, i, opts.Shards, appliedLSNs[i], reps[i])
			if err != nil {
				return nil, nil, err
			}
		}
	}

	engine, err := shard.NewFromShards(cfg, shard.Options{
		Shards:      opts.Shards,
		Workers:     opts.Workers,
		BufferPages: bufferPages,
	}, trees, stores)
	if err != nil {
		return nil, nil, err
	}
	opened = true
	db := &ShardedDB{engine: engine, dims: cfg.Dims, path: path, wals: wals, recovery: reps}
	db.health.after = int32(opts.DegradeAfter)
	for _, rep := range reps {
		rep.journal()
	}
	db.maint = startMaintainer(db, opts.Maintenance)
	return db, reps, nil
}

// MergeRecoveryReports folds per-shard reports into one database-level
// report for consumers built around a single report (dqserver's
// dynq_recovery_* gauges): counts sum, repair flags OR, and HeaderSeq is
// the maximum. A nil or empty slice yields nil.
func MergeRecoveryReports(reps []*RecoveryReport) *RecoveryReport {
	var out *RecoveryReport
	for _, r := range reps {
		if r == nil {
			continue
		}
		if out == nil {
			cp := *r
			out = &cp
			continue
		}
		if r.HeaderSeq > out.HeaderSeq {
			out.HeaderSeq = r.HeaderSeq
		}
		out.TornHeaderRepaired = out.TornHeaderRepaired || r.TornHeaderRepaired
		out.PagesChecked += r.PagesChecked
		out.LeafPages += r.LeafPages
		out.InternalPages += r.InternalPages
		out.Segments += r.Segments
		out.FreePages += r.FreePages
		out.FreeListRebuilt = out.FreeListRebuilt || r.FreeListRebuilt
		out.OrphanPages += r.OrphanPages
		out.WALArmed = out.WALArmed || r.WALArmed
		out.WALCheckpointLSN += r.WALCheckpointLSN
		out.WALRecordsReplayed += r.WALRecordsReplayed
		out.WALUpdatesReplayed += r.WALUpdatesReplayed
		out.WALTornTail = out.WALTornTail || r.WALTornTail
	}
	return out
}

// LastRecovery returns the per-shard reports from the OpenShardedRecover
// that produced this database, nil for a fresh or in-memory database.
func (db *ShardedDB) LastRecovery() []*RecoveryReport { return db.recovery }

// WALArmed reports whether the database carries per-shard logs.
func (db *ShardedDB) WALArmed() bool { return db.wals != nil }

// Sync persists every shard and checkpoints its log, shard by shard,
// through the same checkpoint as the single-tree DB (see DB.Sync): flush
// the shard's dirty pages, commit its metadata carrying the shard log's
// highest applied LSN, then truncate the log to that LSN. The database
// lock is held exclusively — writers hold it shared, so this exclusion
// is exactly Checkpoint's no-concurrent-Append precondition.
func (db *ShardedDB) Sync() error { return syncUnits(db, nil) }
