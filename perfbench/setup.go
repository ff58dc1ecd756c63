package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dynq"
	"dynq/internal/motion"
	"dynq/internal/workload"
	"dynq/netq"
)

// sessionKind is the dynamic query an observer runs.
type sessionKind int

const (
	kindPDQ  sessionKind = iota // StartPredictive + FetchPredictive frames
	kindNPDQ                    // ResetNonPredictive + NonPredictive frames
)

// engineKind is the deployment a workload serves from. Each kind fixes the
// engine, its storage and whether an update stream runs.
type engineKind int

const (
	// engineMemory: in-memory single tree, read-only load.
	engineMemory engineKind = iota
	// engineFileDual: file-backed dual-time-axes tree, built and reopened
	// through recovery (dqload -> dqserver -db), read-only load.
	engineFileDual
	// engineShardedIngest: file-backed sharded engine with per-shard WAL
	// (dqserver -db -wal -shards N). An open-loop ApplyUpdates stream runs
	// beside one observer whose PDQ sessions subscribe to the inserts.
	engineShardedIngest
)

// spec is one workload. README.md gives the reason for each.
type spec struct {
	engine    engineKind
	scale     float64 // share of the paper's 5000-object population
	kind      sessionKind
	overlap   float64 // consecutive-frame overlap
	rng       float64 // query window side
	checkEach int     // sessions per observer checked against the reference
	replay    int     // sessions per observer replayed one layer down when tracing
}

var workloads = map[string]spec{
	"pdq-flythrough": {engine: engineMemory, scale: 0.2, kind: kindPDQ, overlap: 0.9, rng: 14,
		checkEach: 8, replay: 100},
	"npdq-large": {engine: engineFileDual, scale: 1.0, kind: kindNPDQ, overlap: 0.5, rng: 20,
		checkEach: 4, replay: 10},
	"ingest-live": {engine: engineShardedIngest, scale: 0.2, kind: kindPDQ, overlap: 0.9, rng: 14,
		checkEach: 4, replay: 40},
}

const (
	observers     = 2    // load connections: observer sessions (ingest-live: 1 observer + 1 generator)
	ingestShards  = 4    // shards of the ingest engine
	bufferPages   = 4096 // server-side page buffer of every engine
	sessionPool   = 512  // seeded sessions the observers cycle through
	setupReps     = 5    // set-ups per run; setup_s is their median
	ingestBatch   = 64   // updates per ApplyUpdates request
	ingestRate    = 1500 // updates per second, open loop
	loadedHorizon = 50.0 // ingest-live bulk-loads segments starting before this time
)

// ingest reports whether the workload streams updates (and its PDQ
// sessions are live).
func (w spec) ingest() bool { return w.engine == engineShardedIngest }

// observerCount is the number of observer connections.
func (w spec) observerCount() int {
	if w.ingest() {
		return 1
	}
	return observers
}

// population generates the paper's mobile-object population at the
// workload's scale.
func population(scale float64, seed int64) ([]motion.TimedSegment, error) {
	sim := motion.PaperConfig()
	sim.Objects = int(float64(sim.Objects) * scale)
	sim.Seed = seed
	return motion.GenerateSegments(sim)
}

func toUpdate(s motion.TimedSegment) dynq.MotionUpdate {
	return dynq.MotionUpdate{ID: s.ObjID, Segment: dynq.Segment{
		T0: s.Seg.T.Lo, T1: s.Seg.T.Hi, From: s.Seg.Start, To: s.Seg.End,
	}}
}

// splitStream divides the population of ingest-live into the bulk-loaded
// part (segments starting before loadedHorizon, in population order) and
// the streamed remainder in start-time order, so every streamed update
// extends an object already in the index.
func splitStream(segs []motion.TimedSegment) (load, stream []dynq.MotionUpdate) {
	for _, s := range segs {
		if s.Seg.T.Lo < loadedHorizon {
			load = append(load, toUpdate(s))
		} else {
			stream = append(stream, toUpdate(s))
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Segment.T0 < stream[j].Segment.T0 })
	return load, stream
}

// session is one seeded dynamic query: the observer trajectory as
// waypoints, and each frame's window and time interval (frame 0 is the
// paper's first query, then 50 subsequent frames).
type session struct {
	query     *workload.Query
	waypoints []dynq.Waypoint
	views     []dynq.Rect
}

// makeSessions generates the workload's session pool from the seed. The
// ingest-live sessions are restricted to the streamed time span.
func makeSessions(w spec, seed int64) ([]session, error) {
	q := workload.PaperQuery(w.overlap, w.rng)
	r := rand.New(rand.NewSource(seed*7919 + 17))
	out := make([]session, 0, sessionPool)
	for len(out) < sessionPool {
		g, err := workload.Generate(q, r)
		if err != nil {
			return nil, err
		}
		if w.ingest() && g.Times[0].Lo < loadedHorizon {
			continue
		}
		s := session{query: g}
		for _, k := range g.Traj.Keys() {
			s.waypoints = append(s.waypoints, dynq.Waypoint{T: k.T, View: boxRect(k.Window)})
		}
		for _, win := range g.Windows {
			s.views = append(s.views, boxRect(win))
		}
		out = append(out, s)
	}
	return out, nil
}

// rig is one set-up deployment: the engine, the netq server hosting it on
// loopback, and the load connections.
type rig struct {
	db      dynq.Database
	sharded *dynq.ShardedDB // set for ingest-live
	srv     *netq.Server
	ln      net.Listener
	served  chan struct{}
	clients []*netq.Client
	conns   []*countingConn // per client; nil entries when not tracing
	dir     string          // data files, removed by close
	loaded  int             // segments in the index after set-up
	stream  []dynq.MotionUpdate
}

// setUp builds the workload's deployment: populate, open, bulk-load (and
// Sync), start the server and dial every load connection. It is what
// setup_s times.
func setUp(w spec, seed int64, dir string, countBytes bool) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rg := &rig{dir: dir}
	if err := rg.open(w, seed); err != nil {
		rg.close()
		return nil, err
	}
	if err := rg.serve(w, countBytes); err != nil {
		rg.close()
		return nil, err
	}
	return rg, nil
}

func (rg *rig) open(w spec, seed int64) error {
	segs, err := population(w.scale, seed)
	if err != nil {
		return err
	}
	switch w.engine {
	case engineShardedIngest:
		var load []dynq.MotionUpdate
		load, rg.stream = splitStream(segs)
		db, err := openShardedEngine(filepath.Join(rg.dir, "ingest.dynq"))
		if err != nil {
			return err
		}
		rg.db, rg.sharded = db, db
		if err := db.BulkLoadUpdates(load); err != nil {
			return fmt.Errorf("bulk load: %w", err)
		}
		if err := db.Sync(); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		rg.loaded = len(load)
	case engineFileDual:
		// The dqload -> dqserver -db shape: build and commit the file, then
		// reopen it through recovery with the serving buffer.
		path := filepath.Join(rg.dir, "npdq.dynq")
		db, err := dynq.Open(dynq.Options{Path: path, DualTimeAxes: true})
		if err != nil {
			return err
		}
		err = db.BulkLoadUpdates(updatesOf(segs))
		if err == nil {
			err = db.Sync()
		}
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		db, _, err = dynq.OpenFileRecoverWith(path, dynq.RecoverOptions{BufferPages: bufferPages})
		if err != nil {
			return fmt.Errorf("reopen %s: %w", path, err)
		}
		rg.db = db
		rg.loaded = len(segs)
	default: // engineMemory
		db, err := dynq.Open(dynq.Options{BufferPages: bufferPages})
		if err != nil {
			return err
		}
		rg.db = db
		if err := db.BulkLoadUpdates(updatesOf(segs)); err != nil {
			return fmt.Errorf("bulk load: %w", err)
		}
		rg.loaded = len(segs)
	}
	return nil
}

// openShardedEngine opens the dqserver -db -wal -shards N shape: a
// file-backed sharded engine with one write-ahead log per shard.
func openShardedEngine(path string) (*dynq.ShardedDB, error) {
	db, _, err := dynq.OpenShardedRecover(path, dynq.ShardRecoverOptions{
		Shards: ingestShards, WAL: true, BufferPages: bufferPages,
	})
	return db, err
}

func updatesOf(segs []motion.TimedSegment) []dynq.MotionUpdate {
	out := make([]dynq.MotionUpdate, len(segs))
	for i, s := range segs {
		out[i] = toUpdate(s)
	}
	return out
}

// serve starts the netq server on loopback and dials the load
// connections: one per observer, plus the generator's on ingest-live.
func (rg *rig) serve(w spec, countBytes bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rg.ln = ln
	rg.srv = netq.NewServer(rg.db)
	rg.served = make(chan struct{})
	go func() {
		defer close(rg.served)
		rg.srv.Serve(ln) // returns once the listener closes
	}()
	n := w.observerCount()
	if w.ingest() {
		n++
	}
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		var cc *countingConn
		if countBytes {
			cc = &countingConn{Conn: conn}
			conn = cc
		}
		cl, err := netq.NewClient(conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("dial: %w", err)
		}
		rg.clients = append(rg.clients, cl)
		rg.conns = append(rg.conns, cc)
	}
	return nil
}

// close stops the server, waits for its accept loop, closes the engine and
// removes the data files.
func (rg *rig) close() error {
	var errs []error
	for _, cl := range rg.clients {
		cl.Close()
	}
	if rg.srv != nil {
		rg.srv.Close()
	}
	if rg.ln != nil {
		rg.ln.Close()
		<-rg.served
	}
	if rg.db != nil {
		errs = append(errs, rg.db.Close())
	}
	errs = append(errs, os.RemoveAll(rg.dir))
	return errors.Join(errs...)
}

// timedSetUps runs setUp setupReps times, keeps the last deployment and
// returns the set-up durations in seconds.
func timedSetUps(w spec, seed int64, base string, countBytes bool) (*rig, []float64, error) {
	var secs []float64
	var rg *rig
	for i := 0; i < setupReps; i++ {
		if rg != nil {
			if err := rg.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		rg, err = setUp(w, seed, filepath.Join(base, fmt.Sprintf("setup%d", i)), countBytes)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return rg, secs, nil
}

// countingConn counts the bytes a client sends and receives.
type countingConn struct {
	net.Conn
	read, written int64 // touched only by the owning client's goroutine
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}
