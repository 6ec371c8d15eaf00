package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/vclock"
	"detmt/internal/wire"
	"detmt/internal/workload"
)

// fig1Stream is the seeded request stream of a Fig. 1 workload: the i-th
// call depends only on the seed and i, never on timing.
type fig1Stream struct {
	cfg workload.Fig1Config
	rng *ids.RNG
}

func newFig1Stream(cfg workload.Fig1Config, seed uint64) *fig1Stream {
	return &fig1Stream{cfg: cfg, rng: ids.NewRNG(seed)}
}

func (s *fig1Stream) next() replica.Call {
	return replica.Call{Method: workload.MethodName, Args: workload.Fig1Args(s.cfg, s.rng)}
}

// span is one traced call: name, wall start/end (ns since the run's
// epoch), the span that caused it (0: none) and the request index (the
// first request's index for a batch send).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin returns a span id and start stamp for a call about to be made.
func (l *spanLog) begin() (int64, int64) {
	if l == nil {
		return 0, 0
	}
	return l.next.Add(1), int64(time.Since(l.epoch))
}

// end records a finished span.
func (l *spanLog) end(id, start, parent int64, name string, req int64) {
	if l == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: int64(time.Since(l.epoch)), Req: req}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// wireGen is the open-loop generator for single-group workloads: one
// wire.TCP transport (one link per member), a client-only gcs group and
// a pool of clients, all kept for the whole run so warm-up, window and
// ceiling steps share connections.
type wireGen struct {
	tr      *wire.TCP
	g       *gcs.Group
	clock   vclock.Clock
	pool    []*replica.Client
	members []ids.ReplicaID
	next    func() replica.Call
	spans   *spanLog
	batch   int
}

// newWireGen dials one replication group. group is the shard tag the
// servers enforce at handshake ("" for a single-group cluster); name
// must be unique per group among the processes dialing it.
func newWireGen(name, group string, servers map[ids.ReplicaID]string, clientBase int, next func() replica.Call) (*wireGen, error) {
	tr, err := wire.NewTCP(wire.Options{Name: name, Group: group, Epoch: 1, Peers: servers})
	if err != nil {
		return nil, err
	}
	members := make([]ids.ReplicaID, 0, len(servers))
	for id := range servers {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	clock := vclock.NewReal()
	g := gcs.NewGroup(gcs.Config{Clock: clock, Group: group, Members: members, Transport: tr, Local: []ids.ReplicaID{}})
	w := &wireGen{tr: tr, g: g, clock: clock, members: members, next: next}
	for i := 0; i < 16; i++ {
		w.pool = append(w.pool, replica.NewClient(clock, g, ids.ClientID(clientBase+i+1)))
	}
	return w, nil
}

func (w *wireGen) close() {
	w.g.Close()
	w.tr.Close()
}

// replyStats sums the pool's reply counters.
func (w *wireGen) replyStats() (total int) {
	for _, c := range w.pool {
		t, _ := c.ReplyStats()
		total += t
	}
	return total
}

// phaseResult is what one open-loop phase observed.
type phaseResult struct {
	outcome
	Completed int
	Intent    []float64    // ms, coordinated-omission corrected
	Service   []float64    // ms, reply minus send
	Late      []float64    // ms, pump wakeup lateness against the schedule
	Timeline  []completion // every answered request, in reply order
	SendNs    int64        // time inside Client.InvokeBatch
}

// phase offers load at rate for dur (or, with dur == 0, until stop
// returns true or maxWarm passes; stop is polled every 250 ms) and waits
// up to settle for the stragglers. Arrivals follow a fixed interval; every arrival due at
// a pump wakeup goes out as one InvokeBatch frame.
func (w *wireGen) phase(rate float64, dur time.Duration, stop func() bool, settle time.Duration) *phaseResult {
	res := &phaseResult{}
	spans := w.spans
	var (
		mu       sync.Mutex
		inFlight atomic.Int64
		sent     atomic.Int64
		done     atomic.Int64
		stopped  atomic.Bool
	)
	if stop != nil {
		go func() {
			for !stopped.Load() {
				time.Sleep(250 * time.Millisecond)
				if stop() {
					stopped.Store(true)
				}
			}
		}()
	}
	const maxInFlight, burstCap = 4096, 256
	const maxWarm = 90 * time.Second
	interval := time.Duration(float64(time.Second) / rate)
	start := w.clock.Now()
	end := start + dur
	more := func(at time.Duration) bool {
		if dur > 0 {
			return at < end
		}
		return !stopped.Load() && at < start+maxWarm
	}
	waiter := func(p *replica.Pending, intent time.Duration, req, sendSpan int64) {
		id, st := spans.begin()
		_, svc, err := p.Wait()
		spans.end(id, st, sendSpan, "replica.Pending.Wait", req)
		at := w.clock.Now()
		inFlight.Add(-1)
		done.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if res.NoSeq+res.Other < 3 {
				logf("request error: %v", err)
			}
			if strings.Contains(err.Error(), gcs.ErrNoSequencer.Error()) {
				res.NoSeq++
			} else {
				res.Other++
			}
			return
		}
		res.Completed++
		res.Intent = append(res.Intent, ms(at-intent))
		res.Service = append(res.Service, ms(svc))
		res.Timeline = append(res.Timeline, completion{Due: intent, At: at})
	}
	var reqIdx int64
	intent := start
	for more(intent) {
		if gap := intent - w.clock.Now(); gap > 0 {
			time.Sleep(gap)
		}
		now := w.clock.Now()
		res.Late = append(res.Late, ms(now-intent))
		due := []time.Duration{intent}
		intent += interval
		for len(due) < burstCap && more(intent) && intent <= now {
			due = append(due, intent)
			intent += interval
		}
		res.Attempted += len(due)
		if int(inFlight.Load())+len(due) > maxInFlight {
			res.Shed += len(due)
			continue
		}
		calls := make([]replica.Call, len(due))
		for i := range calls {
			calls[i] = w.next()
		}
		cl := w.pool[w.batch%len(w.pool)]
		w.batch++
		inFlight.Add(int64(len(due)))
		sent.Add(int64(len(due)))
		id, st := spans.begin()
		t0 := time.Now()
		ps := cl.InvokeBatch(calls)
		res.SendNs += int64(time.Since(t0))
		spans.end(id, st, 0, "replica.Client.InvokeBatch", reqIdx)
		for i, p := range ps {
			go waiter(p, due[i], reqIdx+int64(i), id)
		}
		reqIdx += int64(len(due))
	}
	stopped.Store(true)
	drainBy := time.Now().Add(settle)
	for done.Load() < sent.Load() && time.Now().Before(drainBy) {
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	res.Timeouts = int(sent.Load() - done.Load())
	logf("phase %.0f req/s: attempted %d completed %d shed %d timeouts %d noseq %d other %d",
		rate, res.Attempted, res.Completed, res.Shed, res.Timeouts, res.NoSeq, res.Other)
	out := *res
	out.Intent = append([]float64(nil), res.Intent...)
	out.Service = append([]float64(nil), res.Service...)
	out.Timeline = append([]completion(nil), res.Timeline...)
	mu.Unlock()
	return &out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statusOf queries one member's control channel.
func statusOf(tr *wire.TCP, id ids.ReplicaID, timeout time.Duration) (*memberStatus, error) {
	b, err := tr.Control(id, []byte("status"), timeout)
	if err != nil {
		return nil, err
	}
	var st memberStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("bad status from %v: %v", id, err)
	}
	return &st, nil
}

// statuses polls every member of the generator's group concurrently
// (so virtual-clock readings are taken as close together as the control
// channel allows).
func (w *wireGen) statuses() ([]*memberStatus, error) {
	out := make([]*memberStatus, len(w.members))
	errs := make([]error, len(w.members))
	var wg sync.WaitGroup
	for i, id := range w.members {
		wg.Add(1)
		go func(i int, id ids.ReplicaID) {
			defer wg.Done()
			out[i], errs[i] = statusOf(w.tr, id, 5*time.Second)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// memberStatus is the subset of the server's status document the
// benchmark reads.
type memberStatus struct {
	ID            ids.ReplicaID `json:"id"`
	View          uint64        `json:"view"`
	Sequencer     ids.ReplicaID `json:"sequencer"`
	Completed     int           `json:"completed"`
	State         int64         `json:"state"`
	Hash          uint64        `json:"hash"`
	NowVirtMs     float64       `json:"now_virt_ms"`
	TraceDropped  uint64        `json:"trace_dropped"`
	Recovery      string        `json:"recovery"`
	GossipLagSeqs uint64        `json:"gossip_lag_seqs"`
	ReplayedTail  int           `json:"replayed_tail"`
	Diagnostic    string        `json:"diagnostic"`
	Nested        struct {
		Performed    int     `json:"performed"`
		Retries      int     `json:"retries"`
		LatencyP99Ms float64 `json:"latency_p99_ms"`
	} `json:"nested"`
	Membership *struct {
		LastSlot uint64 `json:"last_slot"`
	} `json:"membership"`
}

func (s *memberStatus) slots() uint64 {
	if s.Membership == nil {
		return 0
	}
	return s.Membership.LastSlot
}
