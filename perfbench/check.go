package main

import (
	"fmt"
	"math"

	"dynq"
	"dynq/internal/geom"
	"dynq/internal/rtree"
)

// reference is the exhaustive ("naive") answer source: every indexed
// segment, quantized to the on-disk float32 precision the engine returns,
// scanned in full for each checked frame. It shares no code with the
// index traversal, the PDQ queue or the NPDQ discard rule.
type reference struct {
	entries []rtree.LeafEntry
}

func newReference(updates []dynq.MotionUpdate) *reference {
	ref := &reference{entries: make([]rtree.LeafEntry, len(updates))}
	for i, u := range updates {
		seg := geom.Segment{
			T:     geom.Interval{Lo: u.Segment.T0, Hi: u.Segment.T1},
			Start: geom.Point(u.Segment.From),
			End:   geom.Point(u.Segment.To),
		}
		ref.entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(u.ID), Seg: rtree.QuantizeSegment(seg)}
	}
	return ref
}

// near returns the indices of the segments whose spatial extent meets the
// session's overall window and whose validity meets its time span: a
// superset of every frame's answer, so the per-frame scans stay small.
func (ref *reference) near(s *session) []int {
	// The trajectory's key windows bound every frame window and the
	// window's motion in between (the last key lies one frame past the
	// last frame's start).
	keys := s.query.Traj.Keys()
	hull := keys[0].Window
	for _, k := range keys[1:] {
		hull = hull.Cover(k.Window)
	}
	span := geom.Interval{Lo: s.query.Times[0].Lo, Hi: keys[len(keys)-1].T}
	d := len(hull)
	var out []int
	for i, e := range ref.entries {
		if e.Seg.T.Lo > span.Hi || e.Seg.T.Hi < span.Lo {
			continue
		}
		if e.Box(d)[:d].Overlaps(hull) {
			out = append(out, i)
		}
	}
	return out
}

type segKey struct {
	id       dynq.ObjectID
	segStart float64
}

// delivered collects a PDQ session's answers by (object, segment), with
// their appear times, and fails on an answer delivered twice. An exact
// repeat (same object, segment and appear time) of a segment for which
// resend reports true is a re-announcement instead: it is counted in
// repeats and collected once.
func delivered(frames [][]answerKey, resend func(segKey) bool) (got map[segKey][]float64, repeats int, err error) {
	got = map[segKey][]float64{}
	seen := map[answerKey]bool{}
	for f, rs := range frames {
		for _, k := range rs {
			sk := segKey{k.id, k.segStart}
			if seen[k] {
				if resend != nil && resend(sk) {
					repeats++
					continue
				}
				return nil, 0, fmt.Errorf("frame %d: object %d (segment at t=%g) delivered twice", f, k.id, k.segStart)
			}
			seen[k] = true
			got[sk] = append(got[sk], k.appear)
		}
	}
	return got, repeats, nil
}

// episodes returns, for the reference segments near the session, the
// appear time of every visibility episode the trajectory has with them up
// to the session's last frame; old holds those of the first present
// entries, the segments in the index when the session started.
func (ref *reference) episodes(s *session, present int) (all, old map[segKey][]float64) {
	end := s.query.Times[len(s.query.Times)-1].Hi
	all, old = map[segKey][]float64{}, map[segKey][]float64{}
	var set geom.IntervalSet
	for _, i := range ref.near(s) {
		e := ref.entries[i]
		set.Reset()
		s.query.Traj.OverlapSegment(e.Seg, &set)
		for _, iv := range set.Intervals() {
			if iv.Lo <= end {
				sk := segKey{dynq.ObjectID(e.ID), e.Seg.T.Lo}
				all[sk] = append(all[sk], iv.Lo)
				if i < present {
					old[sk] = append(old[sk], iv.Lo)
				}
			}
		}
	}
	return all, old
}

// sameEpisodes fails unless one segment's delivered appear times equal
// the reference's.
func sameEpisodes(sk segKey, gs, ws []float64) error {
	if len(gs) != len(ws) {
		return fmt.Errorf("object %d (segment at t=%g): %d episodes delivered, reference has %d",
			sk.id, sk.segStart, len(gs), len(ws))
	}
	gs, ws = sortedCopy(gs), sortedCopy(ws)
	for i := range ws {
		if math.Abs(gs[i]-ws[i]) > 1e-9 {
			return fmt.Errorf("object %d (segment at t=%g): appears at %g, reference %g",
				sk.id, sk.segStart, gs[i], ws[i])
		}
	}
	return nil
}

// checkPDQ compares one predictive session's answers with the exhaustive
// episodes of its trajectory: every (object, segment) visibility episode
// must arrive exactly once over the session, with the right appear time.
func (ref *reference) checkPDQ(s *session, frames [][]answerKey) error {
	got, _, err := delivered(frames, nil)
	if err != nil {
		return err
	}
	want, _ := ref.episodes(s, 0)
	for sk, ws := range want {
		if err := sameEpisodes(sk, got[sk], ws); err != nil {
			return err
		}
		delete(got, sk)
	}
	for sk := range got {
		return fmt.Errorf("object %d (segment at t=%g) delivered but not in the reference", sk.id, sk.segStart)
	}
	return nil
}

// checkLive checks a live predictive session that ran while updates
// streamed in. The reference holds every acknowledged update; its first
// present entries were in the index when the session started.
//   - Soundness: every delivered (object, segment) is in the reference
//     and meets the trajectory, no answer arrives twice (but see below),
//     and no segment arrives more often than it has episodes.
//   - Completeness: every episode of a segment present at the start
//     arrives, with the right appear time, as in a static session.
//
// Segments inserted during the session may or may not arrive, depending
// on how far the session had got when they were applied. One of them may
// also arrive twice with the same appear time: dynq.ViewCache documents
// that a live PDQ session can re-send an episode when a concurrent insert
// lands mid-frame, and merges the re-send into the open episode. Such
// exact repeats are accepted for segments not present at the start only,
// and returned as the session's re-announcement count.
func (ref *reference) checkLive(s *session, frames [][]answerKey, present int) (int, error) {
	all, old := ref.episodes(s, present)
	got, repeats, err := delivered(frames, func(sk segKey) bool {
		_, wasPresent := old[sk]
		return !wasPresent
	})
	if err != nil {
		return 0, err
	}
	for sk, gs := range got {
		ws := all[sk]
		if len(ws) == 0 {
			return 0, fmt.Errorf("object %d (segment at t=%g) delivered but not in the reference", sk.id, sk.segStart)
		}
		if len(gs) > len(ws) {
			return 0, fmt.Errorf("object %d (segment at t=%g): %d episodes delivered, reference has %d",
				sk.id, sk.segStart, len(gs), len(ws))
		}
	}
	for sk, ws := range old {
		if err := sameEpisodes(sk, got[sk], ws); err != nil {
			return 0, err
		}
	}
	return repeats, nil
}

// checkNPDQ compares one non-predictive session frame by frame with the
// exhaustive candidate sets: frame i must deliver exactly the segments
// whose boxes meet query i and did not meet query i-1 (the paper's
// bounding-box delivery granularity), each once.
func (ref *reference) checkNPDQ(s *session, frames [][]answerKey) error {
	near := ref.near(s)
	var prev map[segKey]bool
	for f, rs := range frames {
		q := rtree.QueryBox(s.query.Windows[f], s.query.Times[f])
		cur := map[segKey]bool{}
		for _, i := range near {
			e := ref.entries[i]
			if e.Box(len(s.query.Windows[f])).Overlaps(q) {
				cur[segKey{dynq.ObjectID(e.ID), e.Seg.T.Lo}] = true
			}
		}
		got := map[segKey]bool{}
		for _, k := range rs {
			sk := segKey{k.id, k.segStart}
			if got[sk] {
				return fmt.Errorf("frame %d: object %d (segment at t=%g) delivered twice", f, k.id, k.segStart)
			}
			got[sk] = true
			if !cur[sk] || prev[sk] {
				return fmt.Errorf("frame %d: object %d (segment at t=%g) delivered but not new in the reference",
					f, k.id, k.segStart)
			}
		}
		for sk := range cur {
			if !prev[sk] && !got[sk] {
				return fmt.Errorf("frame %d: object %d (segment at t=%g) missing", f, sk.id, sk.segStart)
			}
		}
		prev = cur
	}
	return nil
}
