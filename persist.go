package dynq

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/wal"
)

// The database's shape metadata is stored in the page file's header so a
// file-backed database can be reopened:
//
//	offset 0  1 byte  format version (2)
//	offset 1  1 byte  spatial dimensionality
//	offset 2  1 byte  dual-time flag
//	offset 3  1 byte  split policy
//	offset 4  4 bytes root page id
//	offset 8  4 bytes height
//	offset 12 8 bytes segment count
//	offset 20 8 bytes modification sequence
//	offset 28 8 bytes applied WAL LSN (version 2; every update with an
//	                  LSN at or below it is captured by the page commit,
//	                  so recovery replays only records above it)
//
// Version 1 files (28 bytes, no LSN field) remain readable: they predate
// the WAL, so their applied LSN is implicitly 0.
const (
	metaVersion1 = 1
	metaVersion  = 2
	metaLenV1    = 28
	metaLen      = 36
)

// maxMetaSegments bounds the plausible persisted segment count; a page
// file can hold at most NumPages * leaf fanout segments and PageIDs are
// 32-bit, so anything near 2^40 is corruption, not data.
const maxMetaSegments = 1 << 40

func encodeMeta(m rtree.Meta, appliedLSN uint64) []byte {
	buf := make([]byte, metaLen)
	buf[0] = metaVersion
	buf[1] = byte(m.Config.Dims)
	if m.Config.DualTime {
		buf[2] = 1
	}
	buf[3] = byte(m.Config.Split)
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.Root))
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.Height))
	binary.LittleEndian.PutUint64(buf[12:], uint64(m.Size))
	binary.LittleEndian.PutUint64(buf[20:], m.ModSeq)
	binary.LittleEndian.PutUint64(buf[28:], appliedLSN)
	return buf
}

// decodeMeta parses and VALIDATES persisted metadata. Every field is
// range-checked and cross-checked before an rtree.Config is built from
// it, so corrupt bytes surface as a descriptive error wrapping
// ErrCorrupt instead of a bogus tree shape. The second return is the
// applied WAL LSN (0 for version-1 files, which predate the WAL).
func decodeMeta(buf []byte) (rtree.Meta, uint64, error) {
	if len(buf) == 0 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: page file carries no database metadata", ErrCorrupt)
	}
	if len(buf) < metaLenV1 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: metadata truncated (%d bytes, want %d)", ErrCorrupt, len(buf), metaLenV1)
	}
	var appliedLSN uint64
	switch buf[0] {
	case metaVersion1:
	case metaVersion:
		if len(buf) < metaLen {
			return rtree.Meta{}, 0, fmt.Errorf("%w: metadata truncated (%d bytes, version 2 wants %d)", ErrCorrupt, len(buf), metaLen)
		}
		appliedLSN = binary.LittleEndian.Uint64(buf[28:])
	default:
		return rtree.Meta{}, 0, fmt.Errorf("%w: unsupported metadata version %d (want %d or %d)", ErrCorrupt, buf[0], metaVersion1, metaVersion)
	}
	dims := int(buf[1])
	if dims < 1 || dims > 8 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: spatial dimensionality %d outside [1,8]", ErrCorrupt, dims)
	}
	if buf[2] > 1 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: dual-time flag byte %d is not 0 or 1", ErrCorrupt, buf[2])
	}
	split := rtree.SplitPolicy(buf[3])
	switch split {
	case rtree.SplitQuadratic, rtree.SplitLinear, rtree.SplitRStarAxis:
	default:
		return rtree.Meta{}, 0, fmt.Errorf("%w: unknown split policy byte %d", ErrCorrupt, buf[3])
	}
	root := pager.PageID(binary.LittleEndian.Uint32(buf[4:]))
	height := binary.LittleEndian.Uint32(buf[8:])
	size := binary.LittleEndian.Uint64(buf[12:])
	if height > 255 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: index height %d implausible (node levels are 8-bit)", ErrCorrupt, height)
	}
	if size > maxMetaSegments {
		return rtree.Meta{}, 0, fmt.Errorf("%w: segment count %d implausible", ErrCorrupt, size)
	}
	if (root == pager.InvalidPage) != (height == 0) {
		return rtree.Meta{}, 0, fmt.Errorf("%w: root page %d inconsistent with height %d", ErrCorrupt, root, height)
	}
	if height == 0 && size != 0 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: empty index (height 0) claims %d segments", ErrCorrupt, size)
	}
	cfg := rtree.DefaultConfig()
	cfg.Dims = dims
	cfg.DualTime = buf[2] == 1
	cfg.Split = split
	return rtree.Meta{
		Root:   root,
		Height: int(height),
		Size:   int(size),
		ModSeq: binary.LittleEndian.Uint64(buf[20:]),
		Config: cfg,
	}, appliedLSN, nil
}

// auxStore is the optional store capability for persisting metadata in
// the page file header. FileStore implements it directly; FaultStore
// forwards to its inner store.
type auxStore interface {
	SetAux(data []byte) error
	Aux() []byte
}

// Sync persists index metadata and flushes pages; on a FileStore the
// commit is atomic (dual header slots), so a crash mid-Sync leaves the
// previous committed state intact. For a memory-backed database it is a
// no-op. With a WAL armed, a successful Sync also checkpoints the log:
// the metadata commit records the highest applied LSN, so the now
// redundant records are truncated away and recovery replays only what
// the page commit missed.
//
// Persistent storage failures eventually degrade the database to
// read-only (see Degraded) — and with a WAL armed, a single Sync failure
// degrades immediately: the log would otherwise grow unboundedly while
// silent retries mask a checkpoint that can never advance.
func (db *DB) Sync() error { return syncUnits(db, nil) }

// syncUnits checkpoints the listed units of db (every unit when idx is
// nil) under the engine's exclusive lock, refusing while degraded. It is
// Sync on both engines and the auto-checkpoint policy's unit, which
// passes only the logs past a threshold, worst pressure first. Writers
// are excluded — DB writers hold the lock exclusively, sharded writers
// hold it shared — which is exactly Checkpoint's no-concurrent-Append
// precondition.
func syncUnits(db maintainable, idx []int) error {
	mu := db.maintLock()
	mu.Lock()
	defer mu.Unlock()
	if err := db.maintHealth().gate(); err != nil {
		return err
	}
	return checkpointLocked(db, idx)
}

// checkpointLocked is syncUnits without the degraded-mode gate, under the
// already-held exclusive lock; the recovery probe commits through it
// while the database is still degraded. A crash between unit i's commit
// and unit j's leaves log j longer than necessary, never inconsistent:
// each unit's metadata and log agree pairwise, and recovery replays each
// pair independently.
func checkpointLocked(db maintainable, idx []int) error {
	trees, stores, logs := db.units()
	if idx == nil {
		idx = make([]int, len(trees))
		for i := range idx {
			idx[i] = i
		}
	}
	start := time.Now()
	var truncated int64
	for _, i := range idx {
		var log *wal.Log
		if logs != nil {
			log = logs[i]
		}
		n, err := checkpoint(db.maintHealth(), trees[i], stores[i], log, i, len(trees))
		if err != nil {
			return err
		}
		truncated += n
	}
	if logs != nil {
		obs.DefaultJournal().Record(obs.EventCheckpoint, obs.SeverityInfo,
			"wal checkpoint committed; log truncated",
			map[string]string{
				"logs":            strconv.Itoa(len(idx)),
				"truncated_bytes": strconv.FormatInt(truncated, 10),
				"duration":        time.Since(start).String(),
			})
	}
	return db.maintHealth().note(nil)
}

// checkpoint persists unit i of n: flush the tree's dirty pages, commit
// its metadata carrying the log's highest applied LSN (atomic dual-header
// commit), then truncate the log to that LSN, returning the log bytes
// truncated. Without a log it is a plain flush and commit, and a failure
// feeds the consecutive-failure counter. With a log armed a failed stage
// degrades the database to read-only IMMEDIATELY and journals it:
// writers would keep appending to a log whose checkpoint cannot advance,
// so "retry later" silently trades durability for an unbounded log.
func checkpoint(health *degradeState, tree *rtree.Tree, store pager.Store, log *wal.Log, i, n int) (int64, error) {
	var lsn uint64
	if log != nil {
		lsn = log.LastLSN()
	}
	stage, err := "flush pages", tree.Pool().Flush()
	if s, ok := store.(auxStore); ok && err == nil {
		stage, err = "stage metadata", s.SetAux(encodeMeta(tree.Meta(), lsn))
	}
	if err == nil {
		stage, err = "commit", store.Sync()
	}
	var truncated int64
	if log != nil && err == nil {
		truncated = log.LiveBytes()
		stage, err = "wal checkpoint", log.Checkpoint(lsn)
	}
	if err == nil {
		return truncated, nil
	}
	werr := wrapDiskFull(fmt.Errorf("dynq: %s%s: %w", stage, shardTag(i, n), err))
	if log == nil {
		return 0, health.note(werr)
	}
	obs.DefaultJournal().Record(obs.EventSyncFailure, obs.SeverityError,
		"checkpoint sync failed with WAL armed; degrading to read-only",
		map[string]string{"shard": strconv.Itoa(i), "stage": stage, "error": err.Error()})
	health.set(true)
	return 0, werr
}

// commitBase commits a freshly created tree's empty base state to a
// file-backed store at once: a crash before the first Sync must leave an
// openable (empty) file — with a WAL armed, that base is what replay
// rebuilds from. Memory stores have nothing to commit.
func commitBase(tree *rtree.Tree, store pager.Store) error {
	fs, ok := store.(*pager.FileStore)
	if !ok {
		return nil
	}
	if err := fs.SetAux(encodeMeta(tree.Meta(), 0)); err != nil {
		return err
	}
	return fs.Sync()
}

// OpenFile reattaches a database previously created with Options.Path
// and persisted with Sync, running the same integrity verification as
// OpenFileRecover but discarding the report. A WAL sidecar at
// "<path>.wal" is detected, replayed, and re-armed automatically.
func OpenFile(path string) (*DB, error) {
	db, _, err := OpenFileRecover(path)
	return db, err
}
