package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/metrics"
	"detmt/internal/shard"
	"detmt/internal/wire"
	"detmt/internal/workload"
)

// Request is one drawn invocation: the routing key a ring-routed target
// maps to a group, and the method call that group orders.
type Request struct {
	Key    uint64
	Method string
	Args   []lang.Value
}

// Pending is one submitted request's reply handle (*replica.Pending
// satisfies it). Wait blocks until the reply and returns it with the
// service latency: reply time minus send time.
type Pending interface {
	Wait() (lang.Value, time.Duration, error)
}

// Target is what a load run drives: the wire cluster (one group or a
// ring of them), the HTTP facade (kvapi.HTTPTarget), or a test fake.
// The engine draws requests, routes them, paces and counts them; the
// target only carries them and reports on its replicas afterwards.
type Target interface {
	// Groups is the number of independently ordered groups behind the
	// target.
	Groups() int
	// Route maps a request's key to its group, in [0, Groups()).
	Route(key uint64) int
	// Submit issues reqs, all routed to group, through client slot
	// `slot` (in [0, LoadOptions.Clients)) as one atomic unit, and
	// returns one reply handle per request. It must not block on
	// replies.
	Submit(group, slot int, reqs []Request) []Pending
	// Settle waits until every replica of every group has applied the
	// run — answered[g] requests were answered by group g — and reports
	// per-group statuses and hash agreement, ascending group. A target
	// whose replicas are not observable returns nil.
	Settle(answered []int, by time.Time) ([]ShardSummary, error)
}

// LoadOptions parameterises one load run: the Fig. 1 measurement
// protocol (clients draw every random choice and pass it as
// parameters) against a Target. Rate == 0 runs a closed loop —
// Clients workers each issue RequestsPerClient requests, one at a time
// or as one Pipelined batch. Rate > 0 runs an open loop: arrivals
// follow a schedule independent of response times, so a slow cluster
// builds queue instead of slowing the offered rate down, which is the
// only way to find the throughput ceiling without coordinated omission
// hiding it.
type LoadOptions struct {
	// Target receives the requests. nil dials a wire target: the
	// groups of Ring when it is set, else the single untagged group
	// Servers. RunLoad closes a target it dialled; a caller-supplied
	// one stays open.
	Target Target
	// Servers maps every member of an unsharded cluster to its address.
	// The generator dials all of them: requests go to the sequencer,
	// replies come back from every replica (first reply wins).
	Servers map[ids.ReplicaID]string
	// Ring is a sharded deployment's verified topology (FetchRing or
	// shard.SymmetricConfig): every request is routed by its key.
	Ring *shard.RingConfig

	// Clients is the client pool: closed-loop workers (default 1), or
	// the open loop's submit pool (default 16), which requests rotate
	// across so no single per-client sequence number stream serialises
	// the offered load. On a ring each client holds an identity in
	// every group (client ids are per-group).
	Clients int
	// RequestsPerClient is how many requests each closed-loop client
	// issues.
	RequestsPerClient int
	// Pipelined makes each closed-loop client submit all its requests
	// as one atomic batch per group before collecting replies. A single
	// pipelined client gives the whole run a reproducible total order —
	// the property the reconnect-determinism test asserts.
	Pipelined bool
	// Timeout bounds a closed-loop run in wall time: its requests,
	// their no-sequencer retries and the convergence wait (default 2
	// minutes).
	Timeout time.Duration

	// Rate is the open loop's offered arrival rate in requests per
	// second (0: closed loop).
	Rate float64
	// Duration is the open loop's measured window (default 5s). Only
	// completions whose scheduled intent time falls inside the window
	// are measured.
	Duration time.Duration
	// Warmup precedes the measured window (default 1s, negative: none):
	// arrivals are offered but their completions are not measured, so
	// connection setup and first-touch allocation stay out of the
	// histograms.
	Warmup time.Duration
	// Poisson draws exponential inter-arrival times (mean 1/Rate)
	// instead of a fixed interval. Seeded, so the schedule reproduces.
	Poisson bool
	// MaxInFlight caps outstanding open-loop requests (default 4096).
	// Arrivals beyond the cap are shed and counted, not queued
	// client-side: unbounded client queues would turn an overloaded run
	// into an unbounded-memory run and report meaningless latencies.
	MaxInFlight int
	// BatchSubmit coalesces the arrivals due at one pump wakeup into one
	// atomic frame per group — the client-side half of group commit.
	BatchSubmit bool
	// SLO is the p99 budget on intent latency for the SLOMet verdict and
	// the ceiling search (0: no verdict).
	SLO time.Duration

	// Seed drives every client-side random decision: request draws and
	// the Poisson schedule.
	Seed uint64
	// Workload parameterises the default draw and must match the
	// cluster's configuration.
	Workload workload.Fig1Config
	// Draw overrides the per-request draw (nil: the Fig. 1 workload
	// under a uniformly random key). FamilyDraw and KVDraw are the
	// alternatives the servers can be configured for.
	Draw func(rng *ids.RNG) Request

	// ClientBase offsets the wire target's client ids: clients are
	// ClientBase+1 .. ClientBase+Clients. Distinct load runs against the
	// SAME cluster must use disjoint ranges — request identity (client
	// id + per-client counter) reaches the deterministic schedule and
	// the replicas' duplicate suppression, so a new generator
	// incarnation is a new set of clients, not a resumption of the old
	// ones. Runs against different clusters that should produce
	// comparable hashes must use the SAME base (default 0).
	ClientBase int
	// EpochDir persists the generator's wire-epoch counter. Every run
	// shares the transport name "load" (per group: "load-g<id>"), so
	// each one must present a strictly higher restart epoch than any
	// other run against the same cluster — a wall-clock epoch alone lets
	// two runs started within the same clock tick collide (one gets
	// swallowed as a stale incarnation). "" uses a shared directory
	// under the OS temp dir.
	EpochDir string
	// SettleTimeout bounds the open loop's wait, after the last
	// scheduled arrival, for outstanding replies and then for every
	// replica to converge (default 30s).
	SettleTimeout time.Duration
	// Dial overrides the wire transport dialer (nil: plain TCP). The
	// chaos injector hooks in here to fault the generator's own
	// connections.
	Dial func(addr string) (net.Conn, error)

	Logf func(format string, args ...interface{})
}

// withDefaults resolves the zero values documented on LoadOptions.
func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 1
		if o.Rate > 0 {
			o.Clients = 16
		}
	}
	if o.RequestsPerClient <= 0 {
		o.RequestsPerClient = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Warmup == 0 {
		o.Warmup = time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4096
	}
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 30 * time.Second
	}
	if o.Workload.Iterations == 0 {
		o.Workload = workload.DefaultFig1()
	}
	return o
}

// fig1Draw is the default draw: the Fig. 1 workload under a uniformly
// random key. A one-group target routes nothing, so there it draws no
// key: a seed sends a single group the plain Fig. 1 stream.
func fig1Draw(wl workload.Fig1Config, routed bool) func(*ids.RNG) Request {
	return func(rng *ids.RNG) Request {
		var key uint64
		if routed {
			key = rng.Uint64()
		}
		return Request{Key: key, Method: workload.MethodName, Args: workload.Fig1Args(wl, rng)}
	}
}

// FamilyDraw draws the family-partitioned workload (the servers must run
// the same workload.FamilyConfig). It draws no key: the family workload
// runs on one group.
func FamilyDraw(f workload.FamilyConfig) func(*ids.RNG) Request {
	return func(rng *ids.RNG) Request {
		method, args := workload.FamilyArgs(f, rng)
		return Request{Method: method, Args: args}
	}
}

// KVDraw draws the replicated KV object's operations: gets with
// probability pGet, otherwise tokenized puts, over `keys` keys, each
// routed by its store key (servers started with -kv).
func KVDraw(keys int, pGet float64) func(*ids.RNG) Request {
	return func(rng *ids.RNG) Request {
		key, method, args := workload.KVRequest(rng, keys, pGet)
		return Request{Key: key, Method: method, Args: args}
	}
}

// LoadResult is the outcome of one load run.
type LoadResult struct {
	Offered  float64 // open loop: requested arrival rate (req/s)
	Achieved float64 // measured completions / measured window (req/s)
	Sent     int     // requests submitted (retries not counted)
	Requests int     // requests resolved: answered or failed
	Measured int     // answered requests whose intent fell inside the window
	Shed     int     // open loop: arrivals dropped at the MaxInFlight cap
	// Timeouts counts requests still unanswered at the drain deadline
	// (closed loop: including those a stalled client never sent).
	Timeouts int
	NoSeqErr int // requests failed on gcs.ErrNoSequencer
	Errors   int // other request errors
	// Retries counts closed-loop ErrNoSequencer submissions retried
	// during an election window — invisible in the latency histograms
	// (the retry's service latency restarts), so reported explicitly.
	Retries int
	// Intent is the coordinated-omission-corrected latency: reply time
	// minus the request's intent time — its scheduled arrival in the
	// open loop, the moment its client drew it in the closed loop.
	// Queueing delay caused by a saturated cluster shows up here.
	Intent *metrics.Histogram
	// Service is reply time minus the answered attempt's send time —
	// what a closed-loop client perceives.
	Service *metrics.Histogram
	Elapsed time.Duration // wall time from the first request to the drain
	// SLOMet reports whether Intent's p99 stayed within SLO (true when
	// no SLO was set).
	SLOMet bool
	// PerShard summarises each group the target reported, ascending;
	// Imbalance is max/mean over routed counts (1.0 = perfectly even).
	PerShard  []ShardSummary
	Imbalance float64
	// Statuses/Hashes are the single group's per-replica snapshots and
	// schedule hashes, ascending replica id (set for one-group targets).
	Statuses []Status
	Hashes   []uint64
	// Converged reports whether every group's replicas all applied the
	// run with identical hashes (the determinism criterion).
	Converged bool
}

// ShardSummary is one group's slice of a load run.
type ShardSummary struct {
	Shard    int     // group id
	Routed   uint64  // requests routed here
	Achieved float64 // measured completions / measured window (req/s)
	Intent   *metrics.Histogram
	// Statuses/Hashes/Converged: the group's replicas after settling —
	// converged means all of them completed the same count with
	// bit-identical ConsistencyHash.
	Statuses  []Status
	Hashes    []uint64
	Converged bool
}

// engine is one run's shared state: the pump or the closed-loop
// clients issue through it, reply waiters record into it.
type engine struct {
	o        LoadOptions
	t        Target
	start    time.Time
	from, to time.Time // the measured window over intent times

	inFlight atomic.Int64

	mu     sync.Mutex
	res    *LoadResult
	want   int // resolutions that end the drain (-1: not yet known)
	idle   chan struct{}
	closed bool // drained: late replies are no longer recorded
	routed []uint64
	// answered/measured/intent are per group.
	answered []int
	measured []int
	intent   []*metrics.Histogram
}

// RunLoad drives one load run and waits for the target to drain and
// converge.
func RunLoad(o LoadOptions) (*LoadResult, error) {
	if o.Rate < 0 {
		return nil, fmt.Errorf("load: rate must not be negative (got %v)", o.Rate)
	}
	o = o.withDefaults()
	t := o.Target
	if t == nil {
		w, err := dialWire(o)
		if err != nil {
			return nil, err
		}
		defer w.close()
		t = w
	}
	if o.Draw == nil {
		o.Draw = fig1Draw(o.Workload, t.Groups() > 1)
	}
	n := t.Groups()
	e := &engine{
		o: o, t: t, want: -1, idle: make(chan struct{}),
		res: &LoadResult{
			Offered: o.Rate,
			Intent:  &metrics.Histogram{},
			Service: &metrics.Histogram{},
		},
		routed:   make([]uint64, n),
		answered: make([]int, n),
		measured: make([]int, n),
		intent:   make([]*metrics.Histogram, n),
	}
	for g := range e.intent {
		e.intent[g] = &metrics.Histogram{}
	}
	e.start = time.Now()
	// One deadline bounds both the drain and the convergence wait.
	var drainBy time.Time
	if o.Rate > 0 {
		e.from = e.start.Add(max(o.Warmup, 0))
		e.to = e.from.Add(o.Duration)
		e.pump()
		drainBy = time.Now().Add(o.SettleTimeout)
	} else {
		e.from = e.start
		e.to = e.start.Add(o.Timeout)
		e.closedLoop()
		drainBy = e.to
	}
	res := e.drain(drainBy)
	if res.Timeouts > 0 {
		return res, fmt.Errorf("load: %d requests unanswered at the drain deadline (servers unreachable or stalled)", res.Timeouts)
	}

	sums, err := t.Settle(e.answered, drainBy)
	res.Imbalance = shard.ImbalanceRatio(e.routed)
	res.Converged = true
	window := o.Duration
	if o.Rate == 0 {
		window = res.Elapsed
	}
	for g := range sums {
		sums[g].Routed = e.routed[g]
		sums[g].Achieved = float64(e.measured[g]) / window.Seconds()
		sums[g].Intent = e.intent[g]
		if !sums[g].Converged {
			res.Converged = false
		}
	}
	res.PerShard = sums
	if len(sums) == 1 {
		res.Statuses, res.Hashes = sums[0].Statuses, sums[0].Hashes
	}
	return res, err
}

// closedLoop starts Clients workers, each issuing RequestsPerClient
// requests — one at a time with the no-sequencer retry rule, or as one
// pipelined batch.
func (e *engine) closedLoop() {
	o := e.o
	e.want = o.Clients * o.RequestsPerClient
	root := ids.NewRNG(o.Seed)
	for slot := 0; slot < o.Clients; slot++ {
		rng := root.Fork()
		go func(slot int) {
			if o.Pipelined {
				reqs := make([]Request, o.RequestsPerClient)
				intents := make([]time.Time, len(reqs))
				for i := range reqs {
					reqs[i] = o.Draw(rng)
					intents[i] = time.Now()
				}
				e.issue(reqs, intents, func() int { return slot })
				return
			}
			for k := 0; k < o.RequestsPerClient; k++ {
				req := o.Draw(rng)
				g := e.t.Route(req.Key)
				if !e.count(g, 1) {
					return
				}
				intent := time.Now()
				_, svc, retries, err := invokeWithRetry(o.Logf, e.to, func() (lang.Value, time.Duration, error) {
					return e.t.Submit(g, slot, []Request{req})[0].Wait()
				})
				e.record(g, intent, svc, retries, err)
			}
		}(slot)
	}
}

// pump walks the open loop's intent schedule, sleeping ahead of the next
// arrival and offering everything that is due at each wakeup. A burst
// cap bounds single-frame size in batch mode.
func (e *engine) pump() {
	o := e.o
	rng := ids.NewRNG(o.Seed)
	arrivals := rng.Fork()
	interval := time.Duration(float64(time.Second) / o.Rate)
	nextGap := func() time.Duration {
		if !o.Poisson {
			return interval
		}
		// Exponential with mean `interval`; clamp the (measure-zero)
		// log(0) draw.
		u := arrivals.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		return time.Duration(-math.Log(u) * float64(interval))
	}
	// Non-batch mode rotates the pool per arrival, batch mode once per
	// (wakeup, group).
	next := 0
	rotate := func() int {
		slot := next % o.Clients
		next++
		return slot
	}
	const burstCap = 256
	shed := 0
	var due []time.Time
	intent := e.start
	for intent.Before(e.to) {
		if gap := time.Until(intent); gap > 0 {
			time.Sleep(gap)
		}
		due = append(due[:0], intent)
		intent = intent.Add(nextGap())
		now := time.Now()
		for len(due) < burstCap && intent.Before(e.to) && !intent.After(now) {
			due = append(due, intent)
			intent = intent.Add(nextGap())
		}
		// Shedding: admit arrivals while in-flight is under the cap and
		// shed the rest of the burst undrawn.
		if room := o.MaxInFlight - int(e.inFlight.Load()); room < len(due) {
			room = max(room, 0)
			shed += len(due) - room
			due = due[:room]
		}
		if o.BatchSubmit {
			reqs := make([]Request, len(due))
			for i := range reqs {
				reqs[i] = o.Draw(rng)
			}
			e.issue(reqs, due, rotate)
			continue
		}
		for _, it := range due {
			e.issue([]Request{o.Draw(rng)}, []time.Time{it}, rotate)
		}
	}
	e.mu.Lock()
	e.res.Shed = shed
	e.want = e.res.Sent
	if e.res.Requests == e.want {
		close(e.idle)
	}
	e.mu.Unlock()
}

// issue routes reqs and submits them as one unit per group, ascending,
// through the client slot() picks for each group; one waiter per reply
// records it.
func (e *engine) issue(reqs []Request, intents []time.Time, slot func() int) {
	byGroup := make([][]int, e.t.Groups())
	for i, r := range reqs {
		g := e.t.Route(r.Key)
		byGroup[g] = append(byGroup[g], i)
	}
	for g, idx := range byGroup {
		if len(idx) == 0 {
			continue
		}
		batch := make([]Request, len(idx))
		for j, i := range idx {
			batch[j] = reqs[i]
		}
		if !e.count(g, len(batch)) {
			return
		}
		for j, p := range e.t.Submit(g, slot(), batch) {
			go func(p Pending, intent time.Time) {
				_, svc, err := p.Wait()
				e.record(g, intent, svc, 0, err)
			}(p, intents[idx[j]])
		}
	}
}

// count books n requests about to be submitted to group g; false once
// the run is drained (a stalled closed-loop client must then stop).
func (e *engine) count(g, n int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.inFlight.Add(int64(n))
	e.res.Sent += n
	e.routed[g] += uint64(n)
	return true
}

// record resolves one request. Only answered requests whose intent lies
// inside the measured window reach the histograms.
func (e *engine) record(g int, intent time.Time, svc time.Duration, retries int, err error) {
	replyAt := time.Now()
	e.inFlight.Add(-1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	r := e.res
	r.Requests++
	r.Retries += retries
	switch {
	case err == nil:
		e.answered[g]++
		if !intent.Before(e.from) && intent.Before(e.to) {
			r.Measured++
			e.measured[g]++
			r.Service.Add(svc)
			r.Intent.Add(replyAt.Sub(intent))
			e.intent[g].Add(replyAt.Sub(intent))
		}
	case isNoSequencer(err):
		r.NoSeqErr++
	default:
		r.Errors++
		if e.o.Logf != nil {
			e.o.Logf("load: %v", err)
		}
	}
	if r.Requests == e.want {
		close(e.idle)
	}
}

// drain waits until every request resolved or the deadline passed, then
// closes the books: stragglers become Timeouts and can no longer record.
func (e *engine) drain(by time.Time) *LoadResult {
	select {
	case <-e.idle:
	case <-time.After(time.Until(by)):
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	r := e.res
	r.Elapsed = time.Since(e.start)
	r.Timeouts = e.want - r.Requests
	window := e.o.Duration
	if e.o.Rate == 0 {
		window = r.Elapsed
	}
	r.Achieved = float64(r.Measured) / window.Seconds()
	r.SLOMet = e.o.SLO <= 0 || r.Intent.Percentile(99) <= e.o.SLO
	return r
}

// invokeWithRetry retries an invocation that failed fast on
// gcs.ErrNoSequencer — a sequencer election in flight. The failed
// request never entered the total order (the client acks and forgets
// it), so the retry is a brand-new request, not a duplicate; counting
// the election window as a client-visible error would make every
// failover smear errors over a load run that actually survived it.
// Backoff is capped, and the deadline bounds the whole loop. The retry
// count is returned so the summary can report how often the election
// window was hit instead of folding it silently into the latency
// histograms.
func invokeWithRetry(logf func(string, ...interface{}), deadline time.Time,
	invoke func() (lang.Value, time.Duration, error)) (lang.Value, time.Duration, int, error) {
	backoff := 25 * time.Millisecond
	retries := 0
	for {
		v, lat, err := invoke()
		if err == nil || !isNoSequencer(err) || time.Now().After(deadline) {
			return v, lat, retries, err
		}
		retries++
		if logf != nil {
			logf("load: no sequencer (election in flight), retrying in %v", backoff)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// CeilingStep records one rung of the ceiling search.
type CeilingStep struct {
	Offered   float64
	Achieved  float64
	P50       time.Duration
	P99       time.Duration
	Shed      int
	Timeouts  int
	Sustained bool // see sustained
}

// CeilingResult is the outcome of FindCeiling: the rate ladder walked
// and the highest offered rate the target sustained within the SLO.
type CeilingResult struct {
	Steps   []CeilingStep
	Ceiling float64
	// Imbalance is the routed-count imbalance ratio at the last
	// sustained step (visibility into ring skew at the ceiling).
	Imbalance float64
}

// sustained is the one test a ceiling step passes: the run returned no
// error, met the SLO, achieved at least 90% of the offered rate, left
// nothing unanswered, failed no request, and every group converged.
func sustained(r *LoadResult, err error) bool {
	return err == nil && r.SLOMet && r.Achieved >= 0.9*r.Offered &&
		r.Timeouts == 0 && r.Errors == 0 && r.NoSeqErr == 0 && r.Converged
}

// FindCeiling walks the offered open-loop rate geometrically (times
// growth per step, default 2) from startRate (default 100) until the
// target stops sustaining it (default SLO: p99 100ms) or maxSteps
// (default 8) runs out. Each step uses a fresh client-id range:
// replica-side duplicate suppression keys on (client, counter), so
// reusing ids across runs would suppress requests.
func FindCeiling(o LoadOptions, startRate, growth float64, maxSteps int) (*CeilingResult, error) {
	if startRate <= 0 {
		startRate = 100
	}
	if growth <= 1 {
		growth = 2
	}
	if maxSteps <= 0 {
		maxSteps = 8
	}
	if o.SLO <= 0 {
		o.SLO = 100 * time.Millisecond
	}
	o.Rate = startRate
	o = o.withDefaults()
	res := &CeilingResult{}
	rate := startRate
	for step := 0; step < maxSteps; step++ {
		ro := o
		ro.Rate = rate
		ro.ClientBase = o.ClientBase + step*o.Clients
		if o.Logf != nil {
			o.Logf("ceiling: step %d offered %.0f req/s", step, rate)
		}
		r, err := RunLoad(ro)
		if r == nil {
			return res, err
		}
		st := CeilingStep{
			Offered:   r.Offered,
			Achieved:  r.Achieved,
			P50:       r.Intent.Percentile(50),
			P99:       r.Intent.Percentile(99),
			Shed:      r.Shed,
			Timeouts:  r.Timeouts,
			Sustained: sustained(r, err),
		}
		res.Steps = append(res.Steps, st)
		if o.Logf != nil {
			o.Logf("ceiling: step %d achieved %.0f req/s p99=%v imbalance=%.2f sustained=%v",
				step, st.Achieved, st.P99, r.Imbalance, st.Sustained)
		}
		if !st.Sustained {
			break
		}
		res.Ceiling = st.Achieved
		res.Imbalance = r.Imbalance
		rate *= growth
	}
	return res, nil
}

// loadEpochLast floors the epoch within one process: even if the
// persisted counter is unavailable, two RunLoad calls from the same
// process never reuse an epoch.
var loadEpochLast atomic.Uint64

// nextLoadEpoch returns a strictly increasing wire epoch for transport
// name `name`: all generators share that name, so without a strictly
// increasing epoch a second run against the same cluster would be
// swallowed by the servers' dedup state (or rejected as a stale
// incarnation). The counter is persisted under dir and bumped under an
// exclusive file lock, so concurrent or rapid-fire generator processes
// started within the same clock tick cannot collide; the wall clock
// only serves as a floor (it keeps epochs increasing across deletion of
// dir, e.g. a temp-dir wipe between boots).
func nextLoadEpoch(dir, name string) uint64 {
	bump := func(e uint64) uint64 {
		if w := uint64(time.Now().UnixNano()); e < w {
			e = w
		}
		for {
			last := loadEpochLast.Load()
			if e <= last {
				e = last + 1
			}
			if loadEpochLast.CompareAndSwap(last, e) {
				return e
			}
		}
	}
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "detmt-load")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return bump(0) // fall back to wall clock + in-process floor
	}
	f, err := os.OpenFile(filepath.Join(dir, "epoch-"+name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return bump(0)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return bump(0)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	var cur uint64
	buf := make([]byte, 8)
	if n, _ := f.ReadAt(buf, 0); n == 8 {
		cur = binary.BigEndian.Uint64(buf)
	}
	next := bump(cur)
	binary.BigEndian.PutUint64(buf, next)
	if _, err := f.WriteAt(buf, 0); err == nil {
		f.Sync()
	}
	return next
}

// pollStatuses queries every server's control endpoint.
func pollStatuses(tr *wire.TCP, servers map[ids.ReplicaID]string) ([]Status, error) {
	members := make([]ids.ReplicaID, 0, len(servers))
	for id := range servers {
		members = append(members, id)
	}
	sortReplicaIDs(members)
	out := make([]Status, 0, len(members))
	for _, id := range members {
		b, err := tr.Control(id, []byte("status"), 5*time.Second)
		if err != nil {
			return nil, err
		}
		var st Status
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("bad status from %v: %v", id, err)
		}
		out = append(out, st)
	}
	return out, nil
}

func sortReplicaIDs(s []ids.ReplicaID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
