package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dynq"
	"dynq/internal/geom"
	"dynq/netq"
)

// Span names: one per call the benchmark makes into netq.
const (
	spanStart = "netq.start" // StartPredictive
	spanReset = "netq.reset" // ResetNonPredictive
	spanFetch = "netq.fetch" // FetchPredictive
	spanNPDQ  = "netq.npdq"  // NonPredictive
	spanApply = "netq.apply" // ApplyUpdates
	spanSess  = "bench.session"
)

// span is one traced call: name, start and end (ns since the run's
// epoch), the request id it belongs to and the id of its parent span.
// Spans of the same request at different layers share the request id.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// reqID names frame f of the k-th session an observer ran; batch ids use
// observer = -1. Replays one layer down reuse the id of the request they
// repeat.
func reqID(obs, k, f int) int64 { return int64(obs+1)<<40 | int64(k)<<12 | int64(f) }

// Frame numbers of the session-level requests in reqID.
const (
	frameStart   = 4094 // StartPredictive / ResetNonPredictive
	frameSession = 4095 // the session as a whole
)

// answerKey identifies one delivered answer: the object, the start of the
// motion segment that made it visible, and (PDQ) when it appears.
type answerKey struct {
	id       dynq.ObjectID
	segStart float64
	appear   float64
}

// captured is the answer stream of one checked session, frame by frame.
type captured struct {
	session int
	frames  [][]answerKey
	live    bool // a live session that raced the update stream
	acked   int  // live: stream updates acknowledged before the session started
}

// observerRun is what one closed-loop observer did in one phase.
type observerRun struct {
	frameNS   []int64 // frame round trips
	frameEnds []int64 // completion time of each frame, ns since phase start
	attempted int64
	failed    int64
	firstErr  error
	spans     []span
	captures  []captured
	ran       []ranSession
}

// ranSession is one session an observer ran: its number in the observer's
// sequence (the k of reqID), its index in the pool, and whether all its
// frames completed.
type ranSession struct {
	k, session int
	complete   bool
}

// observer is one load connection running back-to-back sessions; it
// keeps its session counter across phases.
type observer struct {
	idx     int
	cl      *netq.Client
	w       spec
	pool    []session
	k       int // sessions started so far
	checked int // sessions captured for the reference check so far
	// stream, when set, is the update stream's progress: live observers
	// pick sessions that straddle its frontier, so every session meets the
	// data arriving under it and the per-frame work stays the same as the
	// stream advances.
	stream *streamState
	cursor int
}

// streamState is the update stream's progress, shared between the
// generator and the live observers.
type streamState struct {
	frontier atomic.Uint64 // start time (float64 bits) of the next streamed update
	acked    atomic.Int64  // updates acknowledged so far
}

// next picks the pool index of the observer's next session.
func (o *observer) next() int {
	if o.stream == nil {
		return (o.idx + o.k*o.w.observerCount()) % len(o.pool)
	}
	f := math.Float64frombits(o.stream.frontier.Load())
	for range o.pool {
		si := o.cursor
		o.cursor = (o.cursor + 1) % len(o.pool)
		t := o.pool[si].query.Times
		if t[0].Lo <= f && f <= t[len(t)-1].Hi {
			return si
		}
	}
	return o.cursor // nothing straddles the frontier: take the next one
}

func boxRect(b geom.Box) dynq.Rect {
	r := dynq.Rect{Min: make([]float64, len(b)), Max: make([]float64, len(b))}
	for d, iv := range b {
		r.Min[d], r.Max[d] = iv.Lo, iv.Hi
	}
	return r
}

// run drives sessions until the deadline. epoch anchors span times.
func (o *observer) run(epoch, start, deadline time.Time, trace, capture bool) *observerRun {
	res := &observerRun{}
	for time.Now().Before(deadline) {
		si := o.next()
		s := &o.pool[si]
		k := o.k
		o.k++
		var capt *captured
		if capture && o.checked < o.w.checkEach {
			o.checked++
			c := captured{session: si, live: o.stream != nil}
			if c.live {
				// Read before the session starts: every update counted
				// here is in the index the session begins from.
				c.acked = int(o.stream.acked.Load())
			}
			res.captures = append(res.captures, c)
			capt = &res.captures[len(res.captures)-1]
		}
		sessID := reqID(o.idx, k, frameSession)
		sessStart := time.Now()
		call := func(name string, f int, fn func() ([]dynq.Result, error)) ([]dynq.Result, bool) {
			t0 := time.Now()
			rs, err := fn()
			t1 := time.Now()
			res.attempted++
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("%s: %w", name, err)
				}
				return nil, false
			}
			if trace {
				id := reqID(o.idx, k, f)
				res.spans = append(res.spans, span{Name: name, ID: id, Parent: sessID, Req: id,
					Start: t0.Sub(epoch).Nanoseconds(), End: t1.Sub(epoch).Nanoseconds()})
			}
			if f < frameStart {
				res.frameNS = append(res.frameNS, t1.Sub(t0).Nanoseconds())
				res.frameEnds = append(res.frameEnds, t1.Sub(start).Nanoseconds())
			}
			return rs, true
		}
		var ok bool
		if o.w.kind == kindPDQ {
			_, ok = call(spanStart, frameStart, func() ([]dynq.Result, error) {
				return nil, o.cl.StartPredictive(s.waypoints, o.w.ingest())
			})
		} else {
			_, ok = call(spanReset, frameStart, func() ([]dynq.Result, error) {
				return nil, o.cl.ResetNonPredictive()
			})
		}
		frames := 0
		for f := 0; ok && f < len(s.views) && time.Now().Before(deadline); f++ {
			tw := s.query.Times[f]
			var rs []dynq.Result
			if o.w.kind == kindPDQ {
				rs, ok = call(spanFetch, f, func() ([]dynq.Result, error) {
					return o.cl.FetchPredictive(tw.Lo, tw.Hi)
				})
			} else {
				view := s.views[f]
				rs, ok = call(spanNPDQ, f, func() ([]dynq.Result, error) {
					return o.cl.NonPredictive(view, tw.Lo, tw.Hi)
				})
			}
			frames++
			if capt != nil {
				capt.frames = append(capt.frames, keysOf(rs))
			}
		}
		if capt != nil && (!ok || frames < len(s.views)) {
			// Failed (already counted) or cut by the deadline: nothing
			// complete to check.
			res.captures = res.captures[:len(res.captures)-1]
			o.checked--
		}
		if trace {
			res.spans = append(res.spans, span{Name: spanSess, ID: sessID, Req: sessID,
				Start: sessStart.Sub(epoch).Nanoseconds(), End: time.Since(epoch).Nanoseconds()})
		}
		res.ran = append(res.ran, ranSession{k: k, session: si, complete: ok && frames == len(s.views)})
	}
	return res
}

func keysOf(rs []dynq.Result) []answerKey {
	out := make([]answerKey, len(rs))
	for i, r := range rs {
		out[i] = answerKey{id: r.ID, segStart: r.Segment.T0, appear: r.Appear}
	}
	return out
}

// generator is the open-loop ingest stream of ingest-live: batches of
// ingestBatch updates due every ingestBatch/ingestRate seconds, each timed
// from when it was due. It keeps its stream position across phases.
type generator struct {
	cl      *netq.Client
	state   *streamState
	stream  []dynq.MotionUpdate
	next    int // stream position
	batches int // batches sent so far (request ids)
}

// generatorRun is what the generator did in one phase.
type generatorRun struct {
	ackNS     []int64 // scheduled send -> durable acknowledgement
	lateNS    []int64 // scheduled send -> actual send
	batchIdx  []int   // batch number of each acknowledged batch
	ackEnds   []int64 // acknowledgement time, ns since phase start
	attempted int64
	failed    int64
	updates   int64
	firstErr  error
	spans     []span
	exhausted bool
	unsent    int // batches due before the deadline but never sent
}

func (g *generator) run(epoch, start, deadline time.Time, trace bool) *generatorRun {
	res := &generatorRun{}
	interval := time.Second * ingestBatch / ingestRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return res
		}
		if !time.Now().Before(deadline) {
			// Behind schedule at the deadline: the batches already due
			// were never sent.
			res.unsent = int(deadline.Sub(due)/interval) + 1
			return res
		}
		if g.next+ingestBatch > len(g.stream) {
			res.exhausted = true
			return res
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		batch := g.stream[g.next : g.next+ingestBatch]
		err := g.cl.ApplyUpdates(batch)
		acked := time.Now()
		res.attempted++
		b := g.batches
		g.batches++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("apply-updates: %w", err)
			}
			// A failed batch may or may not have applied; stop so the
			// segment-count check stays exact.
			return res
		}
		g.next += ingestBatch
		if g.next < len(g.stream) {
			g.state.frontier.Store(math.Float64bits(g.stream[g.next].Segment.T0))
		}
		g.state.acked.Add(ingestBatch)
		res.updates += ingestBatch
		res.ackNS = append(res.ackNS, acked.Sub(due).Nanoseconds())
		res.lateNS = append(res.lateNS, sent.Sub(due).Nanoseconds())
		res.batchIdx = append(res.batchIdx, b)
		res.ackEnds = append(res.ackEnds, acked.Sub(start).Nanoseconds())
		if trace {
			id := reqID(-1, 0, 0) + int64(b)
			res.spans = append(res.spans, span{Name: spanApply, ID: id, Req: id,
				Start: sent.Sub(epoch).Nanoseconds(), End: acked.Sub(epoch).Nanoseconds()})
		}
	}
}

// phaseRun is one phase across all load connections.
type phaseRun struct {
	elapsed time.Duration
	obs     []*observerRun
	gen     *generatorRun
}

// runPhase drives every observer and the generator for d.
func runPhase(epoch time.Time, obs []*observer, gen *generator, d time.Duration, trace, capture bool) *phaseRun {
	pr := &phaseRun{obs: make([]*observerRun, len(obs))}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, o := range obs {
		wg.Add(1)
		go func(i int, o *observer) {
			defer wg.Done()
			pr.obs[i] = o.run(epoch, start, deadline, trace, capture)
		}(i, o)
	}
	if gen != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr.gen = gen.run(epoch, start, deadline, trace)
		}()
	}
	wg.Wait()
	pr.elapsed = time.Since(start)
	return pr
}

func (pr *phaseRun) frames() (ns []int64, attempted, failed int64) {
	for _, r := range pr.obs {
		ns = append(ns, r.frameNS...)
		attempted += r.attempted
		failed += r.failed
	}
	if pr.gen != nil {
		attempted += pr.gen.attempted
		failed += pr.gen.failed
	}
	return ns, attempted, failed
}

func (pr *phaseRun) firstErr() error {
	for _, r := range pr.obs {
		if r.firstErr != nil {
			return r.firstErr
		}
	}
	if pr.gen != nil {
		return pr.gen.firstErr
	}
	return nil
}
