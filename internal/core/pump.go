package core

import (
	"container/heap"
	"sync"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// The event pump delivers all scheduler events that do not originate from
// a managed thread's own call — condition-wait timeouts, (simulated)
// nested-invocation replies and settled scheduler decisions (see
// Runtime.Settle) — at deterministic instants in a deterministic order.
//
// Why it exists: two future events expiring at the same (virtual) instant
// must be processed in an order that is a pure function of the event set,
// not of the racy order in which helper goroutines happened to register
// their timers. The pump keeps one priority queue ordered by
// (time, thread id, event kind) and processes due events from a single
// goroutine; its wakeup timer uses a low-priority ordered parker so that
// same-instant thread computations always finish their (deterministic)
// cascades first.
//
// The queue is a real container/heap priority queue: schedule is
// O(log n) and delivering the next due event is a peek + O(log n) pop,
// instead of re-sorting the whole queue per delivered event. Event
// records are pooled, so a steady stream of timeouts and nested replies
// recycles the same handful of allocations.
//
// The replication layer's nested replies arrive through totally ordered
// group communication; it injects them via ScheduleNestedResume, which
// funnels them through this same pump so that replies racing with running
// threads are serialised identically on every replica.

type pumpKind int

const (
	pumpNestedResume pumpKind = iota
	pumpWaitTimeout
	pumpSettle
)

type pumpEvent struct {
	at     time.Duration
	thread *Thread
	kind   pumpKind
	mutex  *Mutex
	reply  interface{}
	decide func() // pumpSettle: the deferred decision
	seq    uint64 // final tiebreak: schedule order
}

type pump struct {
	rt *Runtime

	mu      sync.Mutex
	queue   pumpHeap
	free    []*pumpEvent // recycled event records
	running bool
	seq     uint64
	parker  vclock.Parker
}

func newPump(rt *Runtime) *pump {
	p := &pump{rt: rt}
	if v, ok := rt.clock.(*vclock.Virtual); ok {
		// Fire after all same-instant thread timers (threads rank by id).
		p.parker = v.NewOrderedParker("event pump", ^uint64(0))
	} else {
		p.parker = rt.clock.NewParker()
	}
	return p
}

// schedule enqueues an event and ensures the pump goroutine is running.
func (p *pump) schedule(at time.Duration, ev pumpEvent) {
	p.mu.Lock()
	var rec *pumpEvent
	if k := len(p.free); k > 0 {
		rec = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		rec = new(pumpEvent)
	}
	*rec = ev
	rec.at = at
	p.seq++
	rec.seq = p.seq
	heap.Push(&p.queue, rec)
	start := !p.running
	p.running = true
	p.mu.Unlock()
	if start {
		p.rt.clock.Go(p.loop)
	} else {
		p.parker.Unpark()
	}
}

// release returns a processed event record to the pool, dropping its
// pointers so pooled records do not pin threads, mutexes or replies.
func (p *pump) release(rec *pumpEvent) {
	*rec = pumpEvent{}
	p.mu.Lock()
	p.free = append(p.free, rec)
	p.mu.Unlock()
}

func pumpLess(a, b *pumpEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if ai, bi := a.threadID(), b.threadID(); ai != bi {
		return ai < bi
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// threadID ranks an event among same-instant events; a settled decision
// carries no thread and ranks first.
func (e *pumpEvent) threadID() ids.ThreadID {
	if e.thread == nil {
		return 0
	}
	return e.thread.ID
}

// pumpHeap is a min-heap of pending events ordered by pumpLess.
type pumpHeap []*pumpEvent

func (h pumpHeap) Len() int            { return len(h) }
func (h pumpHeap) Less(i, j int) bool  { return pumpLess(h[i], h[j]) }
func (h pumpHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pumpHeap) Push(x interface{}) { *h = append(*h, x.(*pumpEvent)) }
func (h *pumpHeap) Pop() interface{} {
	old := *h
	n := len(old)
	rec := old[n-1]
	old[n-1] = nil // no stale reference from the heap's backing array
	*h = old[:n-1]
	return rec
}

// loop processes events until the queue drains, then exits (a permanently
// parked goroutine would trip the virtual clock's deadlock detector).
//
// A due event is processed only when the pump was woken by its own timer,
// which — being the lowest-priority timer — fires only when every managed
// goroutine is blocked. This guarantees that pump events never race with
// the cascades of running threads: each event's consequences settle
// completely before the next event (even one due at the same instant) is
// delivered. An unpark (new event scheduled) merely re-evaluates the
// deadline and parks again.
func (p *pump) loop() {
	quiesced := false
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.running = false
			p.mu.Unlock()
			return
		}
		head := p.queue[0] // peek: the heap keeps the next event at the root
		at := head.at
		now := p.rt.clock.Now()
		if at > now || !quiesced {
			p.mu.Unlock()
			// ParkTimeout(<=0) parks on an immediate timer: under the
			// virtual clock it returns (woken=false) at quiescence
			// without advancing time; a true result means a new event
			// arrived and the deadline must be recomputed.
			woken := p.parker.ParkTimeout(at - now)
			quiesced = !woken
			continue
		}
		heap.Pop(&p.queue)
		p.mu.Unlock()
		quiesced = false // processing wakes threads; re-park before the next event
		switch head.kind {
		case pumpNestedResume:
			p.rt.NestedResume(head.thread, head.reply)
		case pumpWaitTimeout:
			p.rt.waitTimeout(head.thread, head.mutex)
		case pumpSettle:
			p.rt.enter(nil, head.decide)
		}
		p.release(head)
	}
}
