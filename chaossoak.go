package dynq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynq/internal/pager"
	"dynq/internal/wal"
)

// ChaosSoakOptions configure ChaosSoak, the combined adversary behind
// dqbench -faults -wal -chaos: crash/reopen cycles with torn log tails
// (WALSoak's adversary) interleaved with disk-full episodes on both the
// page store and the log, driven against a database whose self-healing
// maintenance loop — auto-checkpoint, degraded-mode recovery probe,
// background scrub — is ticked manually under an injected clock so every
// run is deterministic.
type ChaosSoakOptions struct {
	// Cycles is the number of crash/reopen iterations (default 60).
	Cycles int
	// Seed drives the workload, the fault schedule, and the query mix;
	// the same seed replays the same soak (default 1).
	Seed int64
	// Batch is the number of motion updates per batch (default 24).
	Batch int
	// AckedBatches is the number of durably acknowledged batches per
	// cycle (default 4). Every acknowledged batch MUST survive the crash.
	AckedBatches int
	// AsyncBatches is the number of DurabilityAsync batches appended
	// before each crash (default 3); the torn tail's victims.
	AsyncBatches int
	// Writers is the number of concurrent goroutines issuing the
	// acknowledged batches (default 4).
	Writers int
	// BufferPages is the page-buffer capacity (default 4096). As in
	// WALSoak it must hold the working set so a crash never tears the
	// page file itself.
	BufferPages int
	// MaxWALBytes is the auto-checkpoint policy's live-byte threshold
	// (default 4 KiB, low enough that a normal cycle's appends cross it).
	// The soak never calls Sync between fault episodes; the maintenance
	// loop alone must keep the log under this bound.
	MaxWALBytes int64
	// ProbeBudget is the maximum number of maintenance ticks a degraded
	// episode may take to heal once the fault clears (default 40);
	// exceeding it fails the soak.
	ProbeBudget int
	// ScrubEvery runs a full background-scrub pass every n-th cycle
	// (default 2; <0 disables). Committed pages are never corrupted by
	// this soak, so any scrub finding is a false positive and fails it.
	ScrubEvery int
	// MaxSegments rotates to a fresh file + log once the committed set
	// grows past it (default 8192).
	MaxSegments int
	// Dir is the working directory (default: a fresh temp dir).
	Dir string
	// Log, when set, receives one progress line per 10 cycles.
	Log func(format string, args ...any)
}

// ChaosSoakReport summarizes a ChaosSoak run. The invariants are
// LostAcked == 0 and WrongAnswers == 0 (WALSoak's durability and
// correctness contracts), plus the self-healing ones: every degraded
// episode heals within the probe budget (the run errors out otherwise),
// WALBoundViolations == 0 (the maintenance loop alone bounds the log),
// UntypedWriteErrors == 0 (disk-full and read-only failures carry their
// typed sentinels), and ScrubCorruptions == 0 (no false positives on
// clean data).
type ChaosSoakReport struct {
	Cycles             int // crash/reopen iterations executed
	BatchesAcked       int // durably acknowledged batches (all must survive)
	BatchesAsync       int // async batches exposed to the tear
	AsyncSurvived      int // async batches found intact after replay
	Tears              int // cycles whose log tail was torn or corrupted
	TornTails          int // reopens that reported a discarded torn tail
	AutoCheckpoints    int // policy-driven checkpoints by the maintenance loop
	CheckpointFailures int // policy-driven checkpoints that failed (fault episodes)
	WALBoundViolations int // post-tick live log bytes at/over the policy cap (MUST be 0)
	DiskFullEpisodes   int // sticky full-volume episodes (log or page store)
	TransientFaults    int // one-shot disk-full spikes
	DiskFullWrites     int // writes refused while a volume was full
	UntypedWriteErrors int // fault-path errors missing their typed sentinel (MUST be 0)
	Degradations       int // read-only trips across all episodes
	Probes             int // recovery probes issued by the maintenance loop
	Heals              int // degraded episodes cleared by a successful probe
	MaxProbesToHeal    int // worst probes-per-episode observed
	ScrubPasses        int // complete scrub sweeps
	ScrubPages         int // pages verified by the scrubber
	ScrubCorruptions   int // scrub findings (MUST be 0: data is never corrupted)
	RecordsReplayed    int // WAL records re-applied across all reopens
	UpdatesReplayed    int // motion updates re-applied across all reopens
	Rotations          int // fresh-file rotations after MaxSegments
	LostAcked          int // acknowledged batches missing after replay (MUST be 0)
	WrongAnswers       int // query answers differing from the replica (MUST be 0)
	QueriesCompared    int // individual query comparisons performed
}

func (r ChaosSoakReport) String() string {
	return fmt.Sprintf(
		"%d cycles: %d acked + %d async batches (%d survived), %d tears (%d torn tails) | %d auto-checkpoints (%d failed, %d bound violations) | %d disk-full episodes + %d transients (%d writes refused, %d untyped), %d degradations healed by %d probes (%d heals, worst %d probes) | %d scrub passes (%d pages, %d corruptions) | replayed %d records (%d updates), %d rotations | %d lost acked, %d wrong answers (%d queries)",
		r.Cycles, r.BatchesAcked, r.BatchesAsync, r.AsyncSurvived,
		r.Tears, r.TornTails,
		r.AutoCheckpoints, r.CheckpointFailures, r.WALBoundViolations,
		r.DiskFullEpisodes, r.TransientFaults, r.DiskFullWrites, r.UntypedWriteErrors,
		r.Degradations, r.Probes, r.Heals, r.MaxProbesToHeal,
		r.ScrubPasses, r.ScrubPages, r.ScrubCorruptions,
		r.RecordsReplayed, r.UpdatesReplayed, r.Rotations,
		r.LostAcked, r.WrongAnswers, r.QueriesCompared)
}

// chaosClock is the injected time source: maintenance backoff and
// checkpoint aging advance only when the soak says so.
type chaosClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// chaosWALFault injects disk-full failures into the log's physical
// writes: sticky (a full volume, until cleared) or a one-shot burst (a
// transient spike that frees up on its own).
type chaosWALFault struct {
	sticky atomic.Bool
	burst  atomic.Int64
}

func (f *chaosWALFault) fault(string) error {
	if f.sticky.Load() {
		return pager.ErrNoSpace
	}
	for {
		n := f.burst.Load()
		if n <= 0 {
			return nil
		}
		if f.burst.CompareAndSwap(n, n-1) {
			return pager.ErrNoSpace
		}
	}
}

// openChaos reopens the committed file with full recovery, a FaultStore
// interposed on the page path, a fault-hooked WAL, and a manually ticked
// maintenance loop under the injected clock.
func openChaos(path string, bufferPages int, mopts MaintenanceOptions,
	now func() time.Time, walFault func(string) error) (*DB, *pager.FaultStore, *RecoveryReport, error) {
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		return nil, nil, nil, err
	}
	faults := pager.NewFaultStore(fs)
	db, rep, err := recoverFileStore(fs, faults)
	if err == nil {
		db.health.after = 2 // degrade on the second consecutive write failure
		if bufferPages > 0 {
			err = db.tree.UseBuffer(bufferPages)
			db.bufferPages = bufferPages
		}
	}
	if err == nil {
		db.wal, err = replayLog(path+".wal", wal.Options{Fault: walFault}, db.tree, db.cfg.Dims, 0, 1, db.appliedLSN, rep)
	}
	if err != nil {
		fs.Close()
		return nil, nil, nil, err
	}
	db.maint = startMaintainer(db, mopts)
	if db.maint != nil {
		db.maint.now = now
	}
	return db, faults, rep, nil
}

// absorb copies the crash/replay core's counters into the chaos report.
func (r *ChaosSoakReport) absorb(w WALSoakReport) {
	r.Cycles, r.BatchesAcked, r.BatchesAsync, r.AsyncSurvived = w.Cycles, w.BatchesAcked, w.BatchesAsync, w.AsyncSurvived
	r.Tears, r.TornTails, r.RecordsReplayed, r.UpdatesReplayed = w.Tears, w.TornTails, w.RecordsReplayed, w.UpdatesReplayed
	r.Rotations, r.LostAcked, r.WrongAnswers, r.QueriesCompared = w.Rotations, w.LostAcked, w.WrongAnswers, w.QueriesCompared
}

// ChaosSoak runs the combined crash + disk-full + self-healing soak.
// Each cycle reopens with recovery and verifies against a never-crashed
// replica (WALSoak's loop), then lets the maintenance tick bound the log
// by policy, then — on a rotating schedule — fills a volume (the log's
// or the page store's, sticky or transient), drives the database into
// read-only mode, clears the fault, and requires the maintenance probe
// to heal it within the probe budget and prove the heal with a durable
// write. Scrub passes over the committed tree must stay clean
// throughout. The cycle ends in a hard crash and a torn log tail. It
// returns an error for harness failures and for self-healing contract
// violations (an episode that never heals); durability and correctness
// violations are counted in the report.
func ChaosSoak(opts ChaosSoakOptions) (ChaosSoakReport, error) {
	if opts.Cycles <= 0 {
		opts.Cycles = 60
	}
	if opts.Batch <= 0 {
		opts.Batch = 24
	}
	if opts.AsyncBatches <= 0 {
		opts.AsyncBatches = 3
	}
	if opts.MaxWALBytes <= 0 {
		opts.MaxWALBytes = 4 << 10
	}
	if opts.ProbeBudget <= 0 {
		opts.ProbeBudget = 40
	}
	if opts.ScrubEvery == 0 {
		opts.ScrubEvery = 2
	}
	l := newSoakLoop(WALSoakOptions{
		Cycles: opts.Cycles, Seed: opts.Seed, Batch: opts.Batch,
		AckedBatches: opts.AckedBatches, AsyncBatches: opts.AsyncBatches, Writers: opts.Writers,
		BufferPages: opts.BufferPages, MaxSegments: opts.MaxSegments, Dir: opts.Dir,
	})
	mopts := MaintenanceOptions{
		Checkpoint:       CheckpointPolicy{MaxBytes: opts.MaxWALBytes},
		ScrubPagesPerSec: 200_000, // one tick covers the whole working set
		ProbeBackoff:     10 * time.Millisecond,
		Interval:         -1, // manual ticks under the injected clock
	}
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	hook := &chaosWALFault{}
	ctx := context.Background()
	var rep ChaosSoakReport

	// The open hook keeps the concrete database and its fault store for
	// the episode steps.
	var db *DB
	var faults *pager.FaultStore
	l.open = func() (maintainable, []*RecoveryReport, error) {
		var rrep *RecoveryReport
		var err error
		if db, faults, rrep, err = openChaos(l.path, l.opts.BufferPages, mopts, clk.Now, hook.fault); err != nil {
			return nil, nil, err
		}
		return db, []*RecoveryReport{rrep}, nil
	}
	l.progress = func(cycle int) {
		if opts.Log != nil && (cycle+1)%10 == 0 {
			rep.absorb(l.rep)
			opts.Log("chaos soak cycle %d/%d: %s", cycle+1, opts.Cycles, rep)
		}
	}
	l.middle = func(cycle int, _ maintainable) error {
		// commitBatch applies one batch durably and mirrors it into the
		// replica — the write the soak's durability invariant covers.
		commitBatch := func(ups []MotionUpdate, batch []soakSeg) error {
			if err := db.ApplyUpdates(ctx, ups, WriteOptions{Durability: DurabilitySync}); err != nil {
				return err
			}
			return l.commit(batch)
		}
		// healLoop ticks the maintenance loop (faults already cleared)
		// until the recovery probe brings the database back read-write.
		healLoop := func() error {
			if !db.Degraded() {
				return nil
			}
			start := db.maint.probeCount.Load()
			for t := 0; db.Degraded() && t < opts.ProbeBudget; t++ {
				clk.Advance(500 * time.Millisecond) // past the max probe backoff
				db.maint.tick()
			}
			if db.Degraded() {
				db.maint.mu.Lock()
				last := db.maint.lastProbeErr
				db.maint.mu.Unlock()
				return fmt.Errorf("database did not heal within %d probe ticks (last probe error %q)",
					opts.ProbeBudget, last)
			}
			if probes := int(db.maint.probeCount.Load() - start); probes > rep.MaxProbesToHeal {
				rep.MaxProbesToHeal = probes
			}
			return nil
		}
		// noteFaultErr checks a fault-episode write failure for its typed
		// sentinel; anything untyped is a satellite contract violation.
		noteFaultErr := func(err error) {
			rep.DiskFullWrites++
			if !errors.Is(err, ErrDiskFull) && !errors.Is(err, ErrReadOnly) {
				rep.UntypedWriteErrors++
			}
		}

		// The soak never calls Sync itself: one maintenance tick must keep
		// the log under the checkpoint policy's byte cap.
		clk.Advance(defaultMaintInterval)
		db.maint.tick()
		if db.wal.LiveBytes() >= opts.MaxWALBytes {
			rep.WALBoundViolations++
		}

		// Fault episode, on a rotating schedule.
		switch cycle % 5 {
		case 1: // sticky disk-full on the log volume
			hook.sticky.Store(true)
			degraded := false
			for i := 0; i < 8 && !degraded; i++ {
				b := l.gen(opts.Batch)
				err := db.ApplyUpdates(ctx, toUpdates(b), WriteOptions{Durability: DurabilitySync})
				if err == nil {
					hook.sticky.Store(false)
					return errors.New("durable write succeeded with the log volume full")
				}
				noteFaultErr(err)
				degraded = db.Degraded()
			}
			if !degraded {
				hook.sticky.Store(false)
				return errors.New("database did not degrade under a full log volume")
			}
			rep.DiskFullEpisodes++
			rep.Degradations++
			// The gate must refuse further writes with the typed sentinel.
			if err := db.ApplyUpdates(ctx, toUpdates(l.gen(1)), WriteOptions{}); !errors.Is(err, ErrReadOnly) {
				rep.UntypedWriteErrors++
			}
			hook.sticky.Store(false) // space returns
			if err := healLoop(); err != nil {
				return err
			}
			b := l.gen(opts.Batch)
			if err := commitBatch(toUpdates(b), b); err != nil {
				return fmt.Errorf("post-heal durable write: %w", err)
			}

		case 2: // transient disk-full spike on the log volume
			hook.burst.Store(1)
			b := l.gen(opts.Batch)
			ups := toUpdates(b)
			err := db.ApplyUpdates(ctx, ups, WriteOptions{Durability: DurabilitySync})
			if err == nil {
				return errors.New("transient log fault did not fire")
			}
			noteFaultErr(err)
			rep.TransientFaults++
			if db.Degraded() {
				return errors.New("one transient failure tripped read-only (threshold is 2)")
			}
			// Space came back on its own; the same batch must now commit.
			if err := commitBatch(ups, b); err != nil {
				return fmt.Errorf("retry after transient fault: %w", err)
			}

		case 3: // sticky disk-full on the page-store volume
			faults.ArmNoSpace(1, true)
			err := db.Sync()
			if err == nil {
				faults.DisarmNoSpace()
				return errors.New("checkpoint succeeded with the page volume full")
			}
			noteFaultErr(err)
			if !db.Degraded() {
				faults.DisarmNoSpace()
				return errors.New("failed checkpoint with WAL armed did not degrade")
			}
			rep.DiskFullEpisodes++
			rep.Degradations++
			faults.DisarmNoSpace() // space returns
			if err := healLoop(); err != nil {
				return err
			}
			b := l.gen(opts.Batch)
			if err := commitBatch(toUpdates(b), b); err != nil {
				return fmt.Errorf("post-heal durable write: %w", err)
			}

		case 4: // transient disk-full spike on the page-store volume
			faults.ArmNoSpace(1, false)
			err := db.Sync()
			if err == nil {
				return errors.New("transient page fault did not fire")
			}
			noteFaultErr(err)
			rep.TransientFaults++
			// A failed checkpoint with a WAL armed degrades immediately
			// (the log cannot be allowed to grow behind silent retries);
			// the probe must bring it back.
			if !db.Degraded() {
				return errors.New("failed checkpoint with WAL armed did not degrade")
			}
			rep.Degradations++
			if err := healLoop(); err != nil {
				return err
			}
			b := l.gen(opts.Batch)
			if err := commitBatch(toUpdates(b), b); err != nil {
				return fmt.Errorf("post-heal durable write: %w", err)
			}
		}

		// Scrub phase: a full pass over the committed tree, with every
		// fault disarmed, must find nothing.
		if opts.ScrubEvery > 0 && cycle%opts.ScrubEvery == 0 {
			passes := db.maint.scrubPassCount.Load()
			for t := 0; t < 50 && db.maint.scrubPassCount.Load() == passes; t++ {
				clk.Advance(defaultMaintInterval)
				db.maint.tick()
			}
			if db.maint.scrubPassCount.Load() == passes {
				return errors.New("scrub pass did not complete")
			}
			if c := db.maint.scrubCorruptCount.Load(); c > 0 {
				rep.ScrubCorruptions += int(c)
				return fmt.Errorf("scrub reported %d corruptions on clean data", c)
			}
		}

		// Fold this open's maintenance counters into the report.
		rep.AutoCheckpoints += int(db.maint.autoCheckpoints.Load())
		rep.CheckpointFailures += int(db.maint.checkpointFailures.Load())
		rep.Probes += int(db.maint.probeCount.Load())
		rep.Heals += int(db.maint.heals.Load())
		rep.ScrubPasses += int(db.maint.scrubPassCount.Load())
		rep.ScrubPages += int(db.maint.scrubPageCount.Load())

		return nil
	}
	err := l.run("chaossoak")
	rep.absorb(l.rep)
	return rep, err
}
