package dynq

import (
	"errors"
	"strconv"
	"time"

	"dynq/internal/obs"
	"dynq/internal/wal"
)

// WALInfo is a point-in-time view of the armed write-ahead log's header
// state, for inspection tools (dqload inspect prints it next to the
// recovery report).
type WALInfo struct {
	Path          string
	Epoch         uint64 // committed header sequence; stamps new records
	LastLSN       uint64 // highest LSN appended
	DurableLSN    uint64 // highest LSN known fsynced (or checkpointed)
	CheckpointLSN uint64 // records at or below it live in the base file
	LiveRecords   uint64 // records appended since the last checkpoint
	LiveBytes     int64  // encoded bytes of those records
	Size          int64  // total log file size, headers included
}

// closeLogs closes an engine's logs (nil entries skipped), reporting
// every failure.
func closeLogs(logs []*wal.Log) error {
	var errs []error
	for _, w := range logs {
		if w != nil {
			errs = append(errs, w.Close())
		}
	}
	return errors.Join(errs...)
}

// walInfo reads one log's header state.
func walInfo(w *wal.Log) WALInfo {
	return WALInfo{
		Path:          w.Path(),
		Epoch:         w.Epoch(),
		LastLSN:       w.LastLSN(),
		DurableLSN:    w.DurableLSN(),
		CheckpointLSN: w.CheckpointLSN(),
		LiveRecords:   w.CheckpointLag(),
		LiveBytes:     w.LiveBytes(),
		Size:          w.Size(),
	}
}

// WALInfo reports the armed write-ahead log's header state; ok is false
// when the database has no WAL.
func (db *DB) WALInfo() (WALInfo, bool) {
	if db.wal == nil {
		return WALInfo{}, false
	}
	return walInfo(db.wal), true
}

// WALInfoByShard reports each shard log's header state in shard order;
// ok is false when the database runs without logs.
func (db *ShardedDB) WALInfoByShard() ([]WALInfo, bool) {
	if db.wals == nil {
		return nil, false
	}
	out := make([]WALInfo, len(db.wals))
	for i, w := range db.wals {
		out[i] = walInfo(w)
	}
	return out, true
}

// walTelemetry snapshots an engine's logs with rolling histogram windows
// over the given spans. The logs fold into one section (see
// obs.MergeWALTelemetry: totals sum, quantiles report the worst log);
// a sharded engine passes its file pattern, which names the section
// and says how many logs were merged, and a single tree passes "" to
// keep its log's own path. ok is false without logs; the netq server
// uses that to omit the section.
func walTelemetry(logs []*wal.Log, windows []time.Duration, pattern string) (obs.WALTelemetry, bool) {
	if logs == nil {
		return obs.WALTelemetry{}, false
	}
	agg := logs[0].Telemetry(windows)
	for _, w := range logs[1:] {
		agg = obs.MergeWALTelemetry(agg, w.Telemetry(windows))
	}
	if pattern != "" {
		agg.Path = pattern
		agg.Logs = len(logs)
	}
	return agg, true
}

// registerWALMetrics exposes an engine's log instrumentation —
// histograms, counters and gauges — in a registry, one {shard="i"}
// series per log when labeled (a sharded engine, whatever its shard
// count), reporting whether logs were present to register.
func registerWALMetrics(reg *obs.Registry, logs []*wal.Log, labeled bool) bool {
	for i, w := range logs {
		if labeled {
			w.RegisterMetricsLabeled(reg, obs.L("shard", strconv.Itoa(i)))
		} else {
			w.RegisterMetrics(reg)
		}
	}
	return logs != nil
}

// WALTelemetry snapshots the armed write-ahead log's instrumentation —
// fsync latency, batch sizes, coalesce ratio, checkpoint state; ok is
// false when the database has no WAL.
func (db *DB) WALTelemetry(windows []time.Duration) (obs.WALTelemetry, bool) {
	return walTelemetry(db.logs(), windows, "")
}

// WALTelemetry aggregates the per-shard logs into one WAL telemetry
// section; ok is false without logs.
func (db *ShardedDB) WALTelemetry(windows []time.Duration) (obs.WALTelemetry, bool) {
	return walTelemetry(db.wals, windows, db.path+".shard*.wal")
}

// RegisterWALMetrics exposes the armed write-ahead log's metrics in a
// registry, reporting whether a WAL was present to register.
func (db *DB) RegisterWALMetrics(reg *obs.Registry) bool {
	return registerWALMetrics(reg, db.logs(), false)
}

// RegisterWALMetrics exposes every shard log's metrics in a registry,
// one {shard="i"}-labeled series per log.
func (db *ShardedDB) RegisterWALMetrics(reg *obs.Registry) bool {
	return registerWALMetrics(reg, db.wals, true)
}
