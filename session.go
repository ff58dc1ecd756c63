package dynq

import (
	"fmt"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/trajectory"
)

// Waypoint is one key snapshot of an observer trajectory: the view
// rectangle the observer sees at time T. Between waypoints the view's
// borders interpolate linearly.
type Waypoint struct {
	T    float64
	View Rect
}

// PredictiveOptions tune a predictive session.
type PredictiveOptions struct {
	// Live subscribes the session to concurrent insertions so objects
	// reported after the session started still appear in its results.
	Live bool
	// RebuildOnRootSplit re-seeds the session's queue when the index
	// grows a new root instead of patching it incrementally.
	RebuildOnRootSplit bool
	// Slack inflates every waypoint view by δ(t), turning the session
	// into a semi-predictive query (SPDQ): the observer may deviate from
	// the registered trajectory by up to Slack(t) without missing
	// results. Nil means exact.
	Slack func(t float64) float64
}

// PredictiveSession is a running predictive dynamic query (PDQ). Results
// are pulled with Next or Fetch in order of appearance; each index node
// is read at most once over the session's lifetime. Not safe for
// concurrent use by multiple goroutines.
type PredictiveSession struct {
	pdq *core.PDQ
}

// buildTrajectory converts API waypoints into the core trajectory form,
// applying the optional slack inflation. Shared by the single-tree and
// sharded predictive queries.
func buildTrajectory(waypoints []Waypoint, dims int, slack func(t float64) float64) (*trajectory.Trajectory, error) {
	keys := make([]trajectory.Key, len(waypoints))
	for i, w := range waypoints {
		box, err := toBoxDims(w.View, dims)
		if err != nil {
			return nil, fmt.Errorf("waypoint %d: %w", i, err)
		}
		keys[i] = trajectory.Key{T: w.T, Window: box}
	}
	traj, err := trajectory.New(keys)
	if err != nil {
		return nil, err
	}
	if slack != nil {
		return traj.Inflate(slack)
	}
	return traj, nil
}

// PredictiveQuery registers an observer trajectory and starts a
// predictive dynamic query over it.
func (db *DB) PredictiveQuery(waypoints []Waypoint, opts PredictiveOptions) (*PredictiveSession, error) {
	traj, err := buildTrajectory(waypoints, db.Dims(), opts.Slack)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	pdq, err := core.NewPDQ(db.tree, traj, core.PDQOptions{
		LiveUpdates:        opts.Live,
		RebuildOnRootSplit: opts.RebuildOnRootSplit,
	}, &db.counters)
	if err != nil {
		return nil, err
	}
	return &PredictiveSession{pdq: pdq}, nil
}

// Next returns the next object becoming visible during [t0, t1], or nil
// when no further object appears in that window. Windows must advance
// monotonically along the trajectory.
func (s *PredictiveSession) Next(t0, t1 float64) (*Result, error) {
	r, err := s.pdq.GetNext(t0, t1)
	if err != nil || r == nil {
		return nil, err
	}
	out := fromResult(*r)
	return &out, nil
}

// Fetch returns every object becoming visible during [t0, t1] — the
// per-frame fetch loop of a rendering client.
func (s *PredictiveSession) Fetch(t0, t1 float64) ([]Result, error) {
	rs, err := s.pdq.Drain(t0, t1)
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Close releases the session (and its live-update subscription).
func (s *PredictiveSession) Close() { s.pdq.Close() }

// NonPredictiveOptions tune a non-predictive session.
type NonPredictiveOptions struct {
	// TrackIDs suppresses re-delivery by remembering the object ids the
	// previous snapshot's traversal produced, instead of the default
	// geometric test.
	TrackIDs bool
	// ExactAnswers filters results with the exact trajectory test at the
	// cost of disabling node-discarding (see package core).
	ExactAnswers bool
}

// NonPredictiveSession is a running non-predictive dynamic query (NPDQ):
// a stream of snapshot queries where each answer contains only objects
// not delivered by the immediately preceding snapshot. Not safe for
// concurrent use by multiple goroutines.
type NonPredictiveSession struct {
	db   *DB
	npdq *core.NPDQ
}

// NonPredictiveQuery starts a non-predictive dynamic query session.
func (db *DB) NonPredictiveQuery(opts NonPredictiveOptions) *NonPredictiveSession {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &NonPredictiveSession{
		db: db,
		npdq: core.NewNPDQ(db.tree, core.NPDQOptions{
			TrackIDs:     opts.TrackIDs,
			ExactAnswers: opts.ExactAnswers,
		}, &db.counters),
	}
}

// Snapshot evaluates the next snapshot of the dynamic query and returns
// the additional answers not delivered by the previous snapshot.
func (s *NonPredictiveSession) Snapshot(view Rect, t0, t1 float64) ([]Result, error) {
	box, err := s.db.toBox(view)
	if err != nil {
		return nil, err
	}
	rs, err := s.npdq.Next(box, geom.Interval{Lo: t0, Hi: t1})
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Reset forgets the previous snapshot (observer teleported): the next
// Snapshot returns a full answer.
func (s *NonPredictiveSession) Reset() { s.npdq.Reset() }
