package dynq

import (
	"dynq/internal/core"
	"dynq/internal/geom"
)

// Pair is one proximity-join answer: two objects within the join distance
// of each other at the query time.
type Pair struct {
	A, B     ObjectID
	SegmentA Segment
	SegmentB Segment
	Dist     float64
}

// Within finds every pair of objects whose positions at time t lie within
// delta of each other (a spatial self-join, the paper's future work (ii)).
// Pairs are reported once, with A < B.
func (db *DB) Within(delta, t float64) ([]Pair, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pairs, err := core.DistanceJoin(db.tree, db.tree, delta, t, &db.counters)
	if err != nil {
		return nil, err
	}
	return fromJoinPairs(pairs), nil
}

// JoinWith finds every pair (a ∈ db, b ∈ other) within delta of each
// other at time t. Both databases must have the same dimensionality.
// Only the receiver is read-locked; concurrent writes to other
// synchronize at its index level, so they may land mid-join.
func (db *DB) JoinWith(other *DB, delta, t float64) ([]Pair, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pairs, err := core.DistanceJoin(db.tree, other.tree, delta, t, &db.counters)
	if err != nil {
		return nil, err
	}
	return fromJoinPairs(pairs), nil
}

// AdaptiveOptions tune the automatic PDQ↔NPDQ hand-off of an adaptive
// session (the paper's future work (iv)).
type AdaptiveOptions struct {
	// Slack is the deviation tolerated before a prediction is abandoned;
	// predictive phases run as SPDQ with views inflated by this much.
	Slack float64
	// Horizon is how far ahead (time units) each prediction extends.
	Horizon float64
	// StableFrames is how many consecutive consistent frames are needed
	// before switching to predictive mode (default 3).
	StableFrames int
}

// AdaptiveSession evaluates a dynamic query without a registered
// trajectory: it starts non-predictive, switches to a semi-predictive
// session whenever the observer's recent motion extrapolates, and falls
// back when the observer deviates. Not safe for concurrent use.
type AdaptiveSession struct {
	db *DB
	a  *core.Adaptive
}

// AdaptiveQuery starts an adaptive dynamic query session.
func (db *DB) AdaptiveQuery(opts AdaptiveOptions) (*AdaptiveSession, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	a, err := core.NewAdaptive(db.tree, core.AdaptiveOptions{
		Slack:        opts.Slack,
		Horizon:      opts.Horizon,
		StableFrames: opts.StableFrames,
	}, &db.counters)
	if err != nil {
		return nil, err
	}
	return &AdaptiveSession{db: db, a: a}, nil
}

// Frame reports the observer's actual view for one frame and returns the
// newly visible objects. Frames must advance monotonically in time.
func (s *AdaptiveSession) Frame(view Rect, t0, t1 float64) ([]Result, error) {
	box, err := s.db.toBox(view)
	if err != nil {
		return nil, err
	}
	rs, err := s.a.Frame(box, geom.Interval{Lo: t0, Hi: t1})
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Predictive reports whether the session is currently running on a
// predicted trajectory.
func (s *AdaptiveSession) Predictive() bool { return s.a.Mode() == core.ModePredictive }

// Handoffs reports how many PDQ↔NPDQ switches have happened.
func (s *AdaptiveSession) Handoffs() int { return s.a.Switches() }

// Close releases any live predictive sub-session.
func (s *AdaptiveSession) Close() { s.a.Close() }

// CountSeries evaluates the continuous aggregate COUNT(*) of a moving
// view: how many objects are inside the observer's window at each sample
// time. The whole series costs one incremental traversal (the dynamic
// query machinery), not one aggregation per sample.
func (db *DB) CountSeries(waypoints []Waypoint, times []float64) ([]int, error) {
	traj, err := buildTrajectory(waypoints, db.Dims(), nil)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return core.ContinuousCount(db.tree, traj, times, &db.counters)
}
