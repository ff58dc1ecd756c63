package dynq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/shard"
)

// WALSoakOptions configure WALSoak, the crash/reopen loop behind
// dqbench -faults -wal. Unlike FaultSoak it injects no storage faults
// into the page file; the adversary here is the crash itself — torn
// bytes at the tail of the write-ahead log, exactly where a real crash
// mid-append or mid-group-commit tears.
type WALSoakOptions struct {
	// Cycles is the number of crash/reopen iterations (default 50).
	Cycles int
	// Seed drives the workload, the tear schedule, and the query mix;
	// the same seed replays the same soak (default 1).
	Seed int64
	// Batch is the number of motion updates per ApplyUpdates batch
	// (default 32).
	Batch int
	// AckedBatches is the number of durably acknowledged batches per
	// cycle, spread across Writers goroutines so group commit coalesces
	// them (default 4). Every acknowledged batch MUST survive the crash.
	AckedBatches int
	// AsyncBatches is the number of DurabilityAsync batches appended
	// after the acknowledged phase (default 4). These are the torn
	// tail's victims: a crash may keep a prefix of them, record by
	// record, never a partial record.
	AsyncBatches int
	// Writers is the number of concurrent goroutines issuing the
	// acknowledged batches (default 4).
	Writers int
	// BufferPages is the page-buffer capacity (default 4096). It must
	// hold the working set: the soak relies on dirty pages staying in
	// memory between checkpoints so the crash never tears the page file
	// itself — that failure class is FaultSoak's department.
	BufferPages int
	// CheckpointEvery checkpoints (Sync) after the acknowledged phase
	// every n-th cycle, exercising log truncation and the epoch bump
	// (default 3; <0 disables).
	CheckpointEvery int
	// MaxSegments rotates to a fresh file + log once the committed set
	// grows past it (default 8192).
	MaxSegments int
	// Shards > 1 runs the soak against a sharded database: one page file
	// and one log per shard, each crash tearing a random subset of the
	// logs independently. Acked batches must survive across ALL logs;
	// async sub-batches survive per shard, record-aligned in that
	// shard's log.
	Shards int
	// Dir is the working directory (default: a fresh temp dir).
	Dir string
	// Log, when set, receives one progress line per 25 cycles.
	Log func(format string, args ...any)
}

// WALSoakReport summarizes a WALSoak run. The invariants are
// LostAcked == 0 (no acknowledged write may vanish, whatever was torn)
// and WrongAnswers == 0 (the recovered database answers every query
// exactly like a replica that never crashed).
type WALSoakReport struct {
	Cycles          int // crash/reopen iterations executed
	BatchesAcked    int // durably acknowledged batches (all must survive)
	BatchesAsync    int // async batches exposed to the tear
	AsyncSurvived   int // async batches found intact after replay
	Tears           int // cycles whose log tail was torn or corrupted
	TornTails       int // reopens that reported a discarded torn tail
	Checkpoints     int // Sync checkpoints taken
	RecordsReplayed int // WAL records re-applied across all reopens
	UpdatesReplayed int // motion updates re-applied across all reopens
	Rotations       int // fresh-file rotations after MaxSegments
	LostAcked       int // acknowledged batches missing after replay (MUST be 0)
	WrongAnswers    int // query answers differing from the replica (MUST be 0)
	QueriesCompared int // individual query comparisons performed
}

func (r WALSoakReport) String() string {
	return fmt.Sprintf(
		"%d cycles: %d acked + %d async batches (%d survived), %d tears (%d torn tails discarded), %d checkpoints, replayed %d records (%d updates), %d rotations | %d lost acked, %d wrong answers (%d queries compared)",
		r.Cycles, r.BatchesAcked, r.BatchesAsync, r.AsyncSurvived,
		r.Tears, r.TornTails, r.Checkpoints,
		r.RecordsReplayed, r.UpdatesReplayed, r.Rotations,
		r.LostAcked, r.WrongAnswers, r.QueriesCompared)
}

// WALSoak runs crash/reopen cycles against a WAL-armed file database.
// Each cycle reopens with recovery (replaying the log), verifies the
// recovered answers against an in-memory replica fed the same batches,
// then writes a new round: concurrently group-committed batches that
// must survive, a checkpoint every few cycles, and a tail of
// DurabilityAsync batches. The cycle ends in a hard crash — the page
// file and log are abandoned without a sync — followed, most cycles, by
// a tear: truncating or flipping bytes strictly after the last
// acknowledged (fsynced) log offset, simulating a torn append or a
// group commit that died mid-write. Acknowledged data is never touched,
// because a completed fsync means those bytes survive a real crash.
func WALSoak(opts WALSoakOptions) (WALSoakReport, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 3
	}
	l := newSoakLoop(opts)
	opts = l.opts
	l.open = func() (maintainable, []*RecoveryReport, error) {
		if opts.Shards == 1 {
			db, rep, err := OpenFileRecoverWith(l.path, RecoverOptions{BufferPages: opts.BufferPages})
			if err != nil {
				return nil, nil, err
			}
			return db, []*RecoveryReport{rep}, nil
		}
		db, reps, err := OpenShardedRecover(l.path, ShardRecoverOptions{
			Shards:      opts.Shards,
			WAL:         true,
			BufferPages: opts.BufferPages,
		})
		if err != nil {
			return nil, nil, err
		}
		return db, reps, nil
	}
	l.middle = func(cycle int, db maintainable) error {
		if opts.CheckpointEvery > 0 && cycle%opts.CheckpointEvery == opts.CheckpointEvery-1 {
			if err := db.Sync(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			l.rep.Checkpoints++
		}
		return nil
	}
	l.progress = func(cycle int) {
		if opts.Log != nil && (cycle+1)%25 == 0 {
			opts.Log("wal soak cycle %d/%d (%d shards): %s", cycle+1, opts.Cycles, opts.Shards, l.rep)
		}
	}
	err := l.run("walsoak")
	return l.rep, err
}

// soakLoop is the crash/replay cycle core shared by WALSoak and
// ChaosSoak, against either engine: opts.Shards == 1 is the single-tree
// DB (path and "path.wal"), more is a ShardedDB with one log per shard,
// each crash tearing a random subset of the logs independently. Every
// cycle runs recover → reconcile the async prefix → compare against the
// replica → acknowledged writes → middle → async tail → crash → tear →
// rotate, drawing from the seeded workload in exactly that order, so a
// seed replays the same soak.
type soakLoop struct {
	opts WALSoakOptions
	path string
	// open reopens the database with recovery, one report per log;
	// middle runs the soak's own steps between the acknowledged writes
	// and the async tail; progress hears of every completed cycle.
	open     func() (maintainable, []*RecoveryReport, error)
	middle   func(cycle int, db maintainable) error
	progress func(cycle int)

	rep       WALSoakReport
	replica   maintainable // never crashes; fed every acknowledged batch
	committed int          // acknowledged segments since the last rotation
	pending   [][]soakSeg  // async batches appended before the last crash
	wrand     *rand.Rand
	nextID    ObjectID
}

// newSoakLoop fills in the defaults both soaks share.
func newSoakLoop(o WALSoakOptions) *soakLoop {
	if o.Cycles <= 0 {
		o.Cycles = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.AckedBatches <= 0 {
		o.AckedBatches = 4
	}
	if o.AsyncBatches <= 0 {
		o.AsyncBatches = 4
	}
	if o.Writers <= 0 {
		o.Writers = 4
	}
	if o.BufferPages <= 0 {
		o.BufferPages = 4096
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8192
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return &soakLoop{opts: o}
}

// run drives every cycle against "<name>.dynq" in opts.Dir (default: a
// fresh temp dir, removed afterwards).
func (l *soakLoop) run(name string) error {
	dir := l.opts.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "dynq-"+name); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	l.path = filepath.Join(dir, name+".dynq")
	l.wrand = rand.New(rand.NewSource(l.opts.Seed))
	defer func() {
		if l.replica != nil {
			l.replica.Close()
		}
	}()
	if err := l.rotate(); err != nil {
		return err
	}
	for cycle := 0; cycle < l.opts.Cycles; cycle++ {
		l.rep.Cycles++
		if err := l.cycle(cycle); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if l.committed >= l.opts.MaxSegments {
			if err := l.rotate(); err != nil {
				return err
			}
			l.rep.Rotations++
		}
		if l.progress != nil {
			l.progress(cycle)
		}
	}
	return nil
}

// rotate starts over from an empty history: a fresh replica and a fresh
// database at path.
func (l *soakLoop) rotate() error {
	if l.replica != nil {
		l.replica.Close()
		l.replica = nil
	}
	l.committed, l.pending = 0, nil
	if l.opts.Shards == 1 {
		replica, err := Open(Options{})
		if err != nil {
			return err
		}
		l.replica = replica
	} else {
		replica, err := OpenSharded(ShardOptions{Shards: l.opts.Shards})
		if err != nil {
			return err
		}
		l.replica = replica
	}
	return freshWAL(l.path, l.opts.Shards, l.opts.BufferPages)
}

// cycle runs one iteration, from the recovering open to the tear.
func (l *soakLoop) cycle(cycle int) error {
	db, reps, err := l.open()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	paths, sizes, err := l.live(cycle, db, reps)
	if err != nil {
		db.Close()
		return err
	}
	if err := crash(db); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	// Tear each log independently — divergence across shards is the
	// point: one log torn mid-record, its neighbor untouched.
	tornAny := false
	for i, p := range paths {
		torn, err := tearWALTail(p, sizes[i], l.wrand)
		if err != nil {
			return fmt.Errorf("tear log %d: %w", i, err)
		}
		tornAny = tornAny || torn
	}
	if tornAny {
		l.rep.Tears++
	}
	return nil
}

// live runs the cycle's steps on the recovered database up to the crash
// and returns each log's path and durable size.
func (l *soakLoop) live(cycle int, db maintainable, reps []*RecoveryReport) ([]string, []int64, error) {
	tornTail := false
	for i, r := range reps {
		if !r.WALArmed {
			return nil, nil, fmt.Errorf("reopen did not arm log %d", i)
		}
		l.rep.RecordsReplayed += r.WALRecordsReplayed
		l.rep.UpdatesReplayed += r.WALUpdatesReplayed
		tornTail = tornTail || r.WALTornTail
	}
	if tornTail {
		l.rep.TornTails++
	}
	if err := l.reconcile(db); err != nil {
		return nil, nil, err
	}
	qrand := rand.New(rand.NewSource(l.opts.Seed ^ (int64(cycle)+1)*0x5DEECE66D))
	wrong, compared, err := compareAnswers(db, l.replica, qrand)
	if err != nil {
		return nil, nil, fmt.Errorf("query comparison: %w", err)
	}
	l.rep.WrongAnswers += wrong
	l.rep.QueriesCompared += compared

	if err := l.ackedWrites(db); err != nil {
		return nil, nil, err
	}
	if err := l.middle(cycle, db); err != nil {
		return nil, nil, err
	}

	// The durable boundaries: every log byte on disk right now is covered
	// by a completed fsync (the soak is quiescent), so each tear must
	// land strictly beyond its log's size here.
	_, _, logs := lockedUnits(db)
	paths := make([]string, len(logs))
	sizes := make([]int64, len(logs))
	for i, w := range logs {
		paths[i] = w.Path()
		if sizes[i], err = fileSize(paths[i]); err != nil {
			return nil, nil, err
		}
	}

	// Async tail: appended, applied in memory, never awaited. Each batch
	// leaves one record in every log it touches.
	for i := 0; i < l.opts.AsyncBatches; i++ {
		b := l.gen(l.opts.Batch)
		if err := db.ApplyUpdates(context.Background(), toUpdates(b), WriteOptions{Durability: DurabilityAsync}); err != nil {
			return nil, nil, fmt.Errorf("async batch: %w", err)
		}
		l.pending = append(l.pending, b)
	}
	l.rep.BatchesAsync += len(l.pending)
	return paths, sizes, nil
}

// ackedWrites is the acknowledged write phase: concurrent batches,
// group-committed across every touched log. Batches use disjoint fresh
// ids, so they commute — the replica can apply them in any order and
// still answer identically. A third of the batches carry churn (delete +
// reinsert of their own first segment) so replay exercises the delete
// path without changing the final state.
func (l *soakLoop) ackedWrites(db maintainable) error {
	acked := make([][]soakSeg, l.opts.AckedBatches)
	ups := make([][]MotionUpdate, len(acked))
	for i := range acked {
		acked[i] = l.gen(l.opts.Batch)
		ups[i] = toUpdates(acked[i])
		if l.wrand.Intn(3) == 0 {
			ups[i] = withChurn(ups[i])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, l.opts.Writers)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ups); i += l.opts.Writers {
				d := DurabilityGroupCommit
				if i%5 == 4 {
					d = DurabilitySync
				}
				if err := db.ApplyUpdates(context.Background(), ups[i], WriteOptions{Durability: d}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("acked batch: %w", err)
	}
	l.rep.BatchesAcked += len(acked)
	for _, b := range acked {
		if err := l.commit(b); err != nil {
			return err
		}
	}
	return nil
}

// gen draws the next batch of the seeded workload.
func (l *soakLoop) gen(n int) []soakSeg { return genSoakBatch(l.wrand, n, &l.nextID) }

// commit records an acknowledged batch: it joins the history and the
// replica.
func (l *soakLoop) commit(batch []soakSeg) error {
	l.committed += len(batch)
	for _, s := range batch {
		if err := l.replica.Insert(s.id, s.seg); err != nil {
			return fmt.Errorf("replica insert: %w", err)
		}
	}
	return nil
}

// reconcile determines, per shard, how many of the pre-crash async
// records survived replay — each log keeps a record-aligned prefix of
// ITS OWN records, independent of the other logs — commits exactly those
// segments, and counts the async batches intact on every shard they
// touched. A shard recovered below its acknowledged state has lost
// acknowledged data: the invariant violation the soak exists to catch.
func (l *soakLoop) reconcile(db maintainable) error {
	pending := l.pending
	l.pending = nil
	gotTrees, _, _ := lockedUnits(db)
	baseTrees, _, _ := lockedUnits(l.replica)
	n := len(gotTrees)

	// Partition each pending batch by owner shard: subs[s] is the ordered
	// list of this crash window's async records in shard s's log, and
	// batchOf[s][j] says which batch record j came from.
	subs := make([][][]soakSeg, n)
	batchOf := make([][]int, n)
	for b, batch := range pending {
		parts := make([][]soakSeg, n)
		for _, s := range batch {
			sh := shard.Place(rtree.ObjectID(s.id), n)
			parts[sh] = append(parts[sh], s)
		}
		for s, p := range parts {
			if len(p) > 0 {
				subs[s] = append(subs[s], p)
				batchOf[s] = append(batchOf[s], b)
			}
		}
	}

	// Each shard's extra segments must be an exact prefix sum of its
	// async record sizes: replay keeps whole records, in order.
	survived := make([]int, n)
	for s := 0; s < n; s++ {
		extra := gotTrees[s].Size() - baseTrees[s].Size()
		if extra < 0 {
			l.rep.LostAcked++
			return nil
		}
		sum, m := 0, 0
		for m < len(subs[s]) && sum < extra {
			sum += len(subs[s][m])
			m++
		}
		if sum != extra {
			return fmt.Errorf("shard %d recovered %d extra segments, not a record-aligned prefix of its %d async records",
				s, extra, len(subs[s]))
		}
		survived[s] = m
	}

	intact := make([]bool, len(pending))
	for i := range intact {
		intact[i] = true
	}
	for s := 0; s < n; s++ {
		for j := 0; j < survived[s]; j++ {
			if err := l.commit(subs[s][j]); err != nil {
				return err
			}
		}
		for j := survived[s]; j < len(subs[s]); j++ {
			intact[batchOf[s][j]] = false
		}
	}
	for _, ok := range intact {
		if ok {
			l.rep.AsyncSurvived++
		}
	}
	return nil
}

// crash abandons db as a power cut would: every log and page file is
// dropped without a final sync — buffered pages lost, each log ending
// wherever its last append stopped — then Close releases the rest
// (worker pool, maintenance loop), a no-op on the crashed files.
func crash(db maintainable) error {
	_, stores, logs := lockedUnits(db)
	var errs []error
	for _, w := range logs {
		errs = append(errs, w.Crash())
	}
	for _, st := range stores {
		if f, ok := st.(*pager.FaultStore); ok {
			st = f.Inner
		}
		if fs, ok := st.(*pager.FileStore); ok {
			errs = append(errs, fs.Crash())
		}
	}
	return errors.Join(append(errs, db.Close())...)
}

// freshWAL replaces whatever database sits at path with an empty,
// checkpointed, WAL-armed one — the single-tree layout for one shard —
// so the next recovering open arms the logs with nothing to replay.
func freshWAL(path string, shards, bufferPages int) error {
	if shards == 1 {
		db, err := Open(Options{Path: path, WALPath: path + ".wal", BufferPages: bufferPages})
		if err != nil {
			return err
		}
		return errors.Join(db.Sync(), db.Close())
	}
	for i := 0; i < shards; i++ {
		for _, p := range []string{shardFilePath(path, i), shardWALPath(path, i)} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	db, err := OpenSharded(ShardOptions{
		Options: Options{Path: path, BufferPages: bufferPages},
		Shards:  shards,
		WAL:     true,
	})
	if err != nil {
		return err
	}
	return errors.Join(db.Sync(), db.Close())
}

// toUpdates converts a generated batch to the ApplyUpdates form.
func toUpdates(batch []soakSeg) []MotionUpdate {
	ups := make([]MotionUpdate, len(batch))
	for i, s := range batch {
		ups[i] = MotionUpdate{ID: s.id, Segment: s.seg}
	}
	return ups
}

// withChurn appends a delete and an identical reinsert of the batch's
// first segment, so replay exercises deletion while the batch's final
// state stays exactly that of the plain inserts.
func withChurn(ups []MotionUpdate) []MotionUpdate {
	u := ups[0]
	return append(ups,
		MotionUpdate{ID: u.ID, Segment: Segment{T0: u.Segment.T0}, Delete: true},
		u)
}

// tearWALTail damages the crash-exposed region of the log — the bytes
// past the last completed fsync. Three moves, chosen by the schedule:
// truncate into the region (a torn append: the OS persisted a prefix of
// a record), truncate deeper (a group commit that died after its first
// record hit the platter), or flip a byte mid-region (a sector that
// persisted garbage). About a quarter of cycles leave the tail intact,
// covering the every-byte-made-it crash.
func tearWALTail(walPath string, ackedSize int64, r *rand.Rand) (bool, error) {
	total, err := fileSize(walPath)
	if err != nil {
		return false, err
	}
	exposed := total - ackedSize
	if exposed <= 0 || r.Float64() < 0.25 {
		return false, nil
	}
	f, err := os.OpenFile(walPath, os.O_RDWR, 0)
	if err != nil {
		return false, err
	}
	defer f.Close()
	switch r.Intn(3) {
	case 0: // tear the final record: cut 1..min(64, exposed) bytes
		cut := int64(1 + r.Intn(int(min64(64, exposed))))
		return true, f.Truncate(total - cut)
	case 1: // tear deep: cut anywhere into the exposed region
		cut := int64(1 + r.Intn(int(exposed)))
		return true, f.Truncate(total - cut)
	default: // flip one byte somewhere in the exposed region
		off := ackedSize + int64(r.Intn(int(exposed)))
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			return false, err
		}
		b[0] ^= 0x40
		_, err := f.WriteAt(b[:], off)
		return true, err
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
