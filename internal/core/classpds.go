package core

import "sort"

// ClassPDS is the class-aware variant of PDS (conflict-class early
// scheduling, package earlysched): each conflict class runs its own PDS
// pool — window, barrier rounds, eligibility, admission-order grants —
// so non-conflicting classes close rounds and execute critical sections
// concurrently.
//
// The merge barrier is a *grant gate* over the stamped admission order:
// a non-global thread is never granted a lock while an older global-
// class thread is live, and a global thread is never granted one while
// an older non-global thread is live. Gate-barred eligible arrivals
// count as "stuck", which keeps their lane's next round from opening —
// exactly how PDS already handles an eligible arrival waiting on a held
// mutex.
//
// Differences from the serial PDS, by construction:
//
//   - RequireFullPool is per-lane meaningless (a lane sees only its
//     class's requests), so lanes always run in the relaxed mode and the
//     dummy machinery is not needed; dummies that still arrive carry a
//     reserved class of their own and drain through a private lane.
//   - Round structure is per lane. Serial PDS aligns all requests into
//     global rounds, so class-parallel PDS is *not* promised to replay
//     the serial round timing for W > 1; with W = 1 (one request per
//     lane at a time) the per-mutex grant order provably equals serial
//     admission order, which the hash-equivalence tests pin down.
type ClassPDS struct {
	NopScheduler
	rt *Runtime

	// W is the per-lane pool size.
	W int

	lanes    map[uint32]*pdsLane
	laneKeys []uint32 // sorted; lanes are always swept in this order
	closing  bool     // a settled barrier close is pending

	escalations     uint64
	mergeStalls     uint64
	parallelCommits uint64
	serialCommits   uint64
}

type pdsLane struct {
	members      []*Thread // started, alive, unsuspended; admission order
	waitingStart []*Thread // admitted beyond W, waiting for a pool slot
	round        int64
}

// NewClassPDS returns a class-aware PDS scheduler with per-lane pool
// size w.
func NewClassPDS(w int) *ClassPDS {
	if w < 1 {
		w = 1
	}
	return &ClassPDS{W: w, lanes: map[uint32]*pdsLane{}}
}

// Name implements Scheduler.
func (s *ClassPDS) Name() string { return "PDS+CLS" }

// Attach implements Scheduler.
func (s *ClassPDS) Attach(rt *Runtime) { s.rt = rt }

// ClassStats implements ClassScheduler. Decision lock held.
func (s *ClassPDS) ClassStats() ClassStats {
	return ClassStats{
		ActiveClasses:   activeClasses(s.rt),
		Escalations:     s.escalations,
		MergeStalls:     s.mergeStalls,
		ParallelCommits: s.parallelCommits,
		SerialCommits:   s.serialCommits,
	}
}

func (s *ClassPDS) lane(c uint32) *pdsLane {
	l := s.lanes[c]
	if l == nil {
		l = &pdsLane{}
		s.lanes[c] = l
		s.laneKeys = append(s.laneKeys, c)
		sort.Slice(s.laneKeys, func(i, j int) bool { return s.laneKeys[i] < s.laneKeys[j] })
	}
	return l
}

func (s *ClassPDS) laneOf(t *Thread) *pdsLane { return s.lane(t.Class()) }

func (l *pdsLane) join(t *Thread) {
	l.members = append(l.members, t)
	sort.SliceStable(l.members, func(i, j int) bool {
		return l.members[i].admitIdx < l.members[j].admitIdx
	})
}

func (l *pdsLane) leave(t *Thread) {
	for i, u := range l.members {
		if u == t {
			l.members = append(l.members[:i], l.members[i+1:]...)
			return
		}
	}
}

// gateAdmits reports whether the merge barrier lets t commit scheduler
// grants: no older *started* live thread on the other side of the
// global/non-global divide. Decision lock held; the admission-order
// scan stops at t itself.
//
// Threads still queued in waitingStart do not bar the gate: they have
// executed nothing, and within a lane the pool is joined strictly in
// admission order, so every blocking edge left — waiter on older
// members, gate-barred on older started threads — points younger to
// older and the wait graph stays acyclic. Barring on unstarted threads
// would close a cross-lane cycle: a gate-barred global waiting on an
// older queued thread whose full lane is itself gate-barred behind the
// global. Lane-join instants are a deterministic function of the
// delivery schedule, so the gate stays deterministic.
func (s *ClassPDS) gateAdmits(t *Thread) bool {
	global := t.Class() == 0
	for _, u := range s.rt.ThreadsByAdmission() {
		if u.admitIdx >= t.admitIdx {
			return true
		}
		if !pdsOf(u).started {
			continue
		}
		if (u.Class() == 0) != global {
			return false
		}
	}
	return true
}

// Admit starts the thread if its lane has a free pool slot, else queues
// it in the lane.
func (s *ClassPDS) Admit(t *Thread) {
	if t.Class() == 0 {
		s.escalations++
	}
	l := s.laneOf(t)
	if len(l.members) < s.W {
		st := pdsOf(t)
		st.phase = pdsRunning
		st.started = true
		l.join(t)
		s.rt.StartThread(t)
		return
	}
	l.waitingStart = append(l.waitingStart, t)
}

// Acquire blocks the thread at its lane's barrier.
func (s *ClassPDS) Acquire(t *Thread, m *Mutex) {
	st := pdsOf(t)
	st.phase = pdsArrived
	st.need = m
	st.eligible = false
	s.tryBarrier(s.laneOf(t))
}

// Release ends the critical section and re-examines every lane: the
// released mutex (or the releaser's progress) may unblock this lane or
// the other side of the merge barrier.
func (s *ClassPDS) Release(t *Thread, m *Mutex) {
	st := pdsOf(t)
	if st.phase == pdsInCS {
		st.phase = pdsRunning
	}
	s.sweep()
}

// WaitPark removes the waiting thread from its lane pool; its monitor
// was released, which may unblock an eligible arrival anywhere.
func (s *ClassPDS) WaitPark(t *Thread, m *Mutex) {
	l := s.laneOf(t)
	l.leave(t)
	s.refill(l)
	s.sweep()
}

// WaitWake rejoins the lane pool as an ineligible arrival that needs its
// monitor back.
func (s *ClassPDS) WaitWake(t *Thread, m *Mutex) {
	st := pdsOf(t)
	st.phase = pdsArrived
	st.need = m
	st.eligible = false
	if !mutexHasWaiter(m, t) {
		m.waiters = append(m.waiters, t)
	}
	l := s.laneOf(t)
	l.join(t)
	s.tryBarrier(l)
}

// NestedBegin removes the suspending thread from its lane pool for the
// duration of the call.
func (s *ClassPDS) NestedBegin(t *Thread) {
	l := s.laneOf(t)
	l.leave(t)
	s.refill(l)
	s.tryBarrier(l)
}

// NestedResume rejoins the lane pool as a running member.
func (s *ClassPDS) NestedResume(t *Thread) {
	pdsOf(t).phase = pdsRunning
	s.laneOf(t).join(t)
	s.rt.ResumeNested(t)
}

// Exit frees the lane slot, admits the next queued request of the class,
// and re-examines every lane — an exit is what clears the merge barrier.
func (s *ClassPDS) Exit(t *Thread) {
	l := s.laneOf(t)
	l.leave(t)
	s.refill(l)
	if t.Class() == 0 {
		s.serialCommits++
	} else {
		s.parallelCommits++
	}
	s.sweep()
}

// refill starts queued requests of one lane while pool slots are free.
func (s *ClassPDS) refill(l *pdsLane) {
	for len(l.members) < s.W && len(l.waitingStart) > 0 {
		t := l.waitingStart[0]
		l.waitingStart = l.waitingStart[1:]
		st := pdsOf(t)
		st.phase = pdsRunning
		st.started = true
		l.join(t)
		s.rt.StartThread(t)
	}
}

// sweep re-runs grants and barriers on every lane, in sorted class
// order. Grant decisions across lanes are independent (disjoint
// footprints; the gate serialises the global class), so the sweep order
// cannot change a grant, only make it.
func (s *ClassPDS) sweep() {
	for _, c := range s.laneKeys {
		l := s.lanes[c]
		s.grantEligible(l)
		s.tryBarrier(l)
	}
}

// tryBarrier closes a lane's round when every member has arrived, no
// critical section is open, and no eligible arrival is still stuck on a
// held mutex.
//
// An eligible arrival stuck only on the merge-barrier *gate* does not
// keep the round closed: its wait is owned by the gate (an older
// opposite-polarity thread must exit), not by this lane, and blocking
// the round on it closes a cycle — an older lane-mate waiting for the
// next round, while the global thread barring the younger gate-stuck
// member is itself gate-barred behind that older lane-mate. Letting the
// round open lets the older member go eligible, pass the gate (older
// threads have smaller bar-sets; the oldest's is empty) and exit, which
// is exactly what clears the gate. With W = 1 a lane has no other
// members, so the serial-equivalent configuration is unaffected.
//
// As in PDS, the close is a settled decision (Runtime.Settle), so a
// lane's round counts every same-instant admission; one pending close
// sweeps all ready lanes in sorted class order.
func (s *ClassPDS) tryBarrier(l *pdsLane) {
	if s.closing || !s.barrierReady(l) {
		return
	}
	s.closing = true
	s.rt.Settle(s.closeBarriers)
}

func (s *ClassPDS) closeBarriers() {
	s.closing = false
	for _, c := range s.laneKeys {
		l := s.lanes[c]
		if !s.barrierReady(l) {
			continue
		}
		l.round++
		s.rt.RecordBarrier(l.members[0], l.round)
		for _, t := range l.members {
			pdsOf(t).eligible = true
		}
		s.grantEligible(l)
	}
}

// barrierReady reports whether the lane's round may close now.
func (s *ClassPDS) barrierReady(l *pdsLane) bool {
	if len(l.members) == 0 {
		return false
	}
	for _, t := range l.members {
		st := pdsOf(t)
		if st.phase != pdsArrived {
			return false // someone still running or in a critical section
		}
		if st.eligible {
			if st.need != nil && st.need.Free() && !s.gateAdmits(t) {
				continue // gate-stuck: the merge barrier owns this wait
			}
			return false // stuck on a held mutex
		}
	}
	return true
}

// grantEligible grants free mutexes to the lane's gate-admissible
// eligible arrivals in admission order.
func (s *ClassPDS) grantEligible(l *pdsLane) {
	for _, t := range l.members {
		st := pdsOf(t)
		if st.phase != pdsArrived || !st.eligible {
			continue
		}
		if !st.need.Free() {
			continue
		}
		if !s.gateAdmits(t) {
			s.mergeStalls++
			continue
		}
		m := st.need
		st.phase = pdsInCS
		st.need = nil
		st.eligible = false
		s.rt.Grant(t, m)
	}
}

// Rounds returns the completed barrier rounds of every lane, keyed by
// class (diagnostics).
func (s *ClassPDS) Rounds() map[uint32]int64 {
	out := make(map[uint32]int64, len(s.lanes))
	for c, l := range s.lanes {
		out[c] = l.round
	}
	return out
}
