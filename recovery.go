package dynq

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/wal"
)

// ErrCorrupt is the umbrella for every integrity failure detected when
// opening a file-backed database: invalid metadata, checksum mismatches,
// a malformed tree, or pages newer than the committed header (a flush
// that died after overwriting committed pages in place). All such errors
// satisfy errors.Is(err, ErrCorrupt); page-level checksum failures
// additionally satisfy errors.Is(err, pager.ErrCorruptPage).
var ErrCorrupt = errors.New("dynq: database corrupt")

// RecoveryReport describes what Open-time recovery verified and
// repaired.
type RecoveryReport struct {
	// HeaderSeq is the committed header sequence number the database
	// opened at.
	HeaderSeq uint64
	// TornHeaderRepaired is true when only one header slot was valid at
	// open — the signature of a crash during a header commit. The commit
	// issued at the end of recovery rewrites the stale slot.
	TornHeaderRepaired bool
	// PagesChecked is the number of reachable pages whose checksum,
	// epoch, and structure were verified (the whole committed tree).
	PagesChecked int
	// LeafPages and InternalPages partition PagesChecked by level.
	LeafPages, InternalPages int
	// Segments is the number of leaf entries found, cross-checked
	// against the committed metadata.
	Segments int
	// FreePages is the number of allocated-but-unreachable pages, all on
	// the free list after recovery.
	FreePages int
	// FreeListRebuilt is true when the on-disk free chain disagreed with
	// the reachability walk (broken links, orphaned pages) and was
	// rebuilt from the tree.
	FreeListRebuilt bool
	// OrphanPages is the number of unreachable pages that were not on
	// the free chain and were returned to it.
	OrphanPages int
	// WALArmed is true when a write-ahead log was opened (and re-armed)
	// alongside the page file; the fields below are meaningful only then.
	WALArmed bool
	// WALCheckpointLSN is the log's committed checkpoint: every update at
	// or below it was already captured by a page commit.
	WALCheckpointLSN uint64
	// WALRecordsReplayed and WALUpdatesReplayed count the log records
	// (batches) and individual motion updates re-applied on top of the
	// committed tree.
	WALRecordsReplayed, WALUpdatesReplayed int
	// WALTornTail is true when the log ended in a torn record — a crash
	// mid-append or mid-group-commit — whose bytes were discarded. Only
	// un-acknowledged writes can be torn: a record covered by a completed
	// Sync/group-commit fsync is never part of the torn tail.
	WALTornTail bool
}

// String renders a one-line summary for logs and tools.
func (r RecoveryReport) String() string {
	s := fmt.Sprintf("seq %d: verified %d pages (%d internal, %d leaf, %d segments), %d free",
		r.HeaderSeq, r.PagesChecked, r.InternalPages, r.LeafPages, r.Segments, r.FreePages)
	if r.TornHeaderRepaired {
		s += ", repaired torn header slot"
	}
	if r.FreeListRebuilt {
		s += fmt.Sprintf(", rebuilt free list (%d orphans)", r.OrphanPages)
	}
	if r.WALArmed {
		s += fmt.Sprintf(", wal: replayed %d records (%d updates) past checkpoint %d",
			r.WALRecordsReplayed, r.WALUpdatesReplayed, r.WALCheckpointLSN)
		if r.WALTornTail {
			s += ", discarded torn tail"
		}
	}
	return s
}

// OpenFileRecover opens a file-backed database, verifying the committed
// tree before handing it out: every reachable page's checksum and epoch
// are checked, the structure is validated against the committed
// metadata, and the free list is rebuilt from the tree if the on-disk
// chain is damaged. Corruption surfaces as a typed error wrapping
// ErrCorrupt; the returned report says what was checked and repaired.
func OpenFileRecover(path string) (*DB, *RecoveryReport, error) {
	return OpenFileRecoverWith(path, RecoverOptions{})
}

// RecoverOptions tune OpenFileRecoverWith; the zero value matches
// OpenFileRecover exactly.
type RecoverOptions struct {
	// WALPath forces a write-ahead log at that path (created when
	// missing, replayed when not). Empty means auto-detect: the
	// conventional sidecar "<path>.wal" is armed iff it already exists.
	WALPath string
	// GroupCommitWindow is the armed log's coalescing window (see
	// Options.GroupCommitWindow).
	GroupCommitWindow time.Duration
	// BufferPages enables the server-side LRU page buffer (see
	// Options.BufferPages).
	BufferPages int
	// DegradeAfter is the consecutive-write-failure threshold (see
	// Options.DegradeAfter).
	DegradeAfter int
	// Maintenance configures the self-healing maintenance loop (see
	// Options.Maintenance).
	Maintenance MaintenanceOptions
}

// OpenFileRecoverWith is OpenFileRecover with knobs: it can force-arm a
// write-ahead log (dqserver -wal), set the group-commit window, and
// restore buffer/degradation options that plain recovery leaves at their
// defaults.
func OpenFileRecoverWith(path string, opts RecoverOptions) (*DB, *RecoveryReport, error) {
	if opts.BufferPages < 0 {
		return nil, nil, fmt.Errorf("dynq: RecoverOptions.BufferPages must be >= 0, got %d", opts.BufferPages)
	}
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		return nil, nil, err
	}
	db, rep, err := recoverFileStore(fs, fs)
	if err != nil {
		fs.Close()
		return nil, nil, err
	}
	db.health.after = int32(opts.DegradeAfter)
	walPath := opts.WALPath
	if walPath == "" {
		sidecar := path + ".wal"
		if _, serr := os.Stat(sidecar); serr == nil {
			walPath = sidecar
		}
	}
	bufferPages := walBufferPages(opts.BufferPages, walPath != "")
	if bufferPages > 0 {
		if err := db.tree.UseBuffer(bufferPages); err != nil {
			db.Close()
			return nil, nil, err
		}
		db.bufferPages = bufferPages
	}
	if walPath != "" {
		db.wal, err = replayLog(walPath, wal.Options{GroupCommitWindow: opts.GroupCommitWindow},
			db.tree, db.cfg.Dims, 0, 1, db.appliedLSN, rep)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	db.maint = startMaintainer(db, opts.Maintenance)
	return db, rep, nil
}

// replayLog opens (or creates) the log of unit i of n at path, replays
// every record past appliedLSN onto tree, and returns the armed log — the
// one replay path of both engines, a single tree being shard 0 of 1.
// Replay happens before the database is visible, so no locking is
// needed; deletes of missing segments are tolerated (the segment may
// have died to a later record before the crash). Every replayed object
// must place on shard i: a record routing elsewhere means the log was
// written under a different shard count, and replaying it would
// materialize objects on the wrong shard. The replayed state lives in
// memory until the next Sync checkpoints it — exactly like writes that
// never crashed.
func replayLog(path string, wopts wal.Options, tree *rtree.Tree, dims, i, n int, appliedLSN uint64, rep *RecoveryReport) (*wal.Log, error) {
	tag := shardTag(i, n)
	w, scan, err := wal.Open(path, wopts)
	if err != nil {
		return nil, fmt.Errorf("dynq: open wal%s: %w", tag, err)
	}
	records, updates := 0, 0
	err = w.Replay(appliedLSN, func(lsn uint64, payload []byte) error {
		ups, err := decodeUpdates(payload, dims)
		if err != nil {
			return fmt.Errorf("%w: wal record %d%s: %v", ErrCorrupt, lsn, tag, err)
		}
		parts, segs, err := partitionBatch(ups, dims, n)
		if err != nil {
			return fmt.Errorf("%w: wal record %d%s: %v", ErrCorrupt, lsn, tag, err)
		}
		for s, p := range parts {
			if s != i && len(p) > 0 {
				return fmt.Errorf("%w: wal record %d%s routes object %d to shard %d — log written under a different shard count?",
					ErrCorrupt, lsn, tag, p[0].ID, s)
			}
		}
		if err := applyToTree(tree, ups, segs[i], true); err != nil {
			return fmt.Errorf("dynq: wal replay record %d%s: %w", lsn, tag, err)
		}
		records++
		updates += len(ups)
		return nil
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	if rep != nil {
		rep.WALArmed = true
		rep.WALCheckpointLSN = scan.Checkpoint
		rep.WALRecordsReplayed = records
		rep.WALUpdatesReplayed = updates
		rep.WALTornTail = scan.TornTail
	}
	if records > 0 || scan.TornTail {
		sev := obs.SeverityInfo
		if scan.TornTail {
			sev = obs.SeverityWarn
		}
		obs.DefaultJournal().Record(obs.EventWALReplay, sev,
			fmt.Sprintf("wal replay%s: %d records (%d updates) past checkpoint %d, torn tail: %v",
				tag, records, updates, scan.Checkpoint, scan.TornTail),
			map[string]string{
				"shard":       strconv.Itoa(i),
				"records":     strconv.Itoa(records),
				"updates":     strconv.Itoa(updates),
				"checkpoint":  strconv.FormatUint(scan.Checkpoint, 10),
				"torn_tail":   strconv.FormatBool(scan.TornTail),
				"last_lsn":    strconv.FormatUint(scan.LastLSN, 10),
				"applied_lsn": strconv.FormatUint(appliedLSN, 10),
			})
	}
	return w, nil
}

// recoverFileStore verifies the committed state of fs and builds a DB
// whose tree reads through treeStore — normally fs itself, but tests and
// the fault soak pass a FaultStore wrapping it.
func recoverFileStore(fs *pager.FileStore, treeStore pager.Store) (*DB, *RecoveryReport, error) {
	tree, m, appliedLSN, rep, err := recoverStoreTree(fs, treeStore)
	if err != nil {
		return nil, nil, err
	}
	db := &DB{tree: tree, cfg: m.Config, store: treeStore, appliedLSN: appliedLSN}
	tree.SetCounters(&db.counters)
	db.recovery = rep
	rep.journal()
	return db, rep, nil
}

// recoverStoreTree is the tree-level half of recovery, shared by the
// single-tree and sharded reopen paths: it verifies the committed state
// of fs (checksums, epochs, structure, free list), repairs what it can,
// and restores the tree reading through treeStore. The returned
// applied-LSN is the committed metadata's WAL watermark — replay starts
// past it.
func recoverStoreTree(fs *pager.FileStore, treeStore pager.Store) (*rtree.Tree, rtree.Meta, uint64, *RecoveryReport, error) {
	fail := func(err error) (*rtree.Tree, rtree.Meta, uint64, *RecoveryReport, error) {
		return nil, rtree.Meta{}, 0, nil, err
	}
	m, appliedLSN, err := decodeMeta(fs.Aux())
	if err != nil {
		return fail(err)
	}
	rep := &RecoveryReport{
		HeaderSeq:          fs.CommittedSeq(),
		TornHeaderRepaired: !fs.BothHeaderSlotsValid(),
	}
	reachable, err := verifyTree(fs, m, rep)
	if err != nil {
		return fail(err)
	}
	if err := recoverFreeList(fs, reachable, rep); err != nil {
		return fail(err)
	}
	if rep.TornHeaderRepaired && !rep.FreeListRebuilt {
		// Re-commit so the stale header slot is rewritten and the file
		// tolerates another torn commit.
		if err := fs.Sync(); err != nil {
			return fail(fmt.Errorf("dynq: repair torn header: %w", err))
		}
	}
	tree, err := rtree.Restore(m.Config, treeStore, m.Root, m.Height, m.Size, m.ModSeq)
	if err != nil {
		return fail(err)
	}
	return tree, m, appliedLSN, rep, nil
}

// journal leaves a queryable record of the recovery in the process-wide
// event journal, so operators see what open-time verification repaired
// without having run `dqload inspect`.
func (r RecoveryReport) journal() {
	sev := obs.SeverityInfo
	if r.TornHeaderRepaired || r.FreeListRebuilt {
		sev = obs.SeverityWarn
	}
	obs.DefaultJournal().Record(obs.EventRecovery, sev,
		"recovery-on-open completed: "+r.String(), map[string]string{
			"header_seq":           strconv.FormatUint(r.HeaderSeq, 10),
			"pages_checked":        strconv.Itoa(r.PagesChecked),
			"segments":             strconv.Itoa(r.Segments),
			"free_pages":           strconv.Itoa(r.FreePages),
			"orphan_pages":         strconv.Itoa(r.OrphanPages),
			"torn_header_repaired": strconv.FormatBool(r.TornHeaderRepaired),
			"free_list_rebuilt":    strconv.FormatBool(r.FreeListRebuilt),
		})
}

// verifyTree walks the committed tree breadth-first from the root,
// checking each page's checksum, epoch, level, and fanout, and returns
// the set of reachable pages.
func verifyTree(fs *pager.FileStore, m rtree.Meta, rep *RecoveryReport) (map[pager.PageID]bool, error) {
	seq := fs.CommittedSeq()
	count := uint32(fs.NumPages())
	reachable := make(map[pager.PageID]bool)
	if m.Root == pager.InvalidPage {
		return reachable, nil
	}
	type frame struct {
		id    pager.PageID
		level int
	}
	queue := []frame{{m.Root, m.Height - 1}}
	buf := make([]byte, pager.PageSize)
	for len(queue) > 0 {
		fr := queue[0]
		queue = queue[1:]
		if reachable[fr.id] {
			return nil, fmt.Errorf("%w: page %d reachable through two tree paths", ErrCorrupt, fr.id)
		}
		if uint32(fr.id) >= count {
			return nil, fmt.Errorf("%w: child pointer %d beyond allocated pages (%d)", ErrCorrupt, fr.id, count)
		}
		reachable[fr.id] = true
		epoch, err := fs.ReadPageEpoch(fr.id, buf)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		if epoch > seq {
			// The page was rewritten after the commit this header
			// describes: an unfinished flush clobbered committed state.
			return nil, fmt.Errorf("%w: page %d carries epoch %d newer than committed header %d (torn flush overwrote committed state)",
				ErrCorrupt, fr.id, epoch, seq)
		}
		n, err := rtree.DecodePage(m.Config, fr.id, buf)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		if n.Level != fr.level {
			return nil, fmt.Errorf("%w: page %d stores level %d, tree position implies %d", ErrCorrupt, fr.id, n.Level, fr.level)
		}
		if n.Leaf() {
			rep.LeafPages++
			rep.Segments += len(n.Entries)
			continue
		}
		rep.InternalPages++
		if len(n.Children) == 0 {
			return nil, fmt.Errorf("%w: internal page %d has no children", ErrCorrupt, fr.id)
		}
		for _, c := range n.Children {
			queue = append(queue, frame{c.ID, fr.level - 1})
		}
	}
	rep.PagesChecked = len(reachable)
	if rep.Segments != m.Size {
		return nil, fmt.Errorf("%w: tree holds %d segments, metadata claims %d", ErrCorrupt, rep.Segments, m.Size)
	}
	return reachable, nil
}

// recoverFreeList checks that the on-disk free chain is exactly the
// complement of the reachable set and rebuilds it from the tree when it
// is not (broken links, pages orphaned by a crash between Alloc and
// commit). A rebuild is committed immediately so the repair survives.
func recoverFreeList(fs *pager.FileStore, reachable map[pager.PageID]bool, rep *RecoveryReport) error {
	var unreachable []pager.PageID
	for id := pager.PageID(0); uint32(id) < uint32(fs.NumPages()); id++ {
		if !reachable[id] {
			unreachable = append(unreachable, id)
		}
	}
	rep.FreePages = len(unreachable)

	chain, chainErr := fs.FreeList()
	intact := chainErr == nil && len(chain) == len(unreachable)
	onChain := make(map[pager.PageID]bool, len(chain))
	if chainErr == nil {
		for _, id := range chain {
			onChain[id] = true
		}
		for _, id := range unreachable {
			if !onChain[id] {
				intact = false
			}
		}
		if len(onChain) != len(chain) {
			intact = false // duplicate links
		}
		for _, id := range chain {
			if reachable[id] {
				// A live tree page on the free chain would be handed out
				// by Alloc and overwritten. Always rebuild.
				intact = false
			}
		}
	}
	if intact {
		return nil
	}
	for _, id := range unreachable {
		if !onChain[id] {
			rep.OrphanPages++
		}
	}
	rep.FreeListRebuilt = true
	if err := fs.ResetFreeList(unreachable); err != nil {
		return fmt.Errorf("dynq: rebuild free list: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return fmt.Errorf("dynq: commit rebuilt free list: %w", err)
	}
	return nil
}
