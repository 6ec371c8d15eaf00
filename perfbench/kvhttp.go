package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"detmt/internal/ids"
	"detmt/internal/kvapi"
	"detmt/internal/lang"
	"detmt/internal/replica"
	"detmt/internal/server"
	"detmt/internal/shard"
	"detmt/internal/workload"
)

const (
	kvRate = 600.0
	// kvWarmRate is the direct-wire warm-up rate, aggregate over shards:
	// 2 × 32768 slots take about 44 s.
	kvWarmRate   = 1500.0
	kvKeys       = 1024
	kvShards     = 2
	kvHTTPConns  = 32
	kvReplays    = 64 // tokenized PUTs re-sent after the window
	kvHTTPWarmup = 2 * time.Second
	// kvClientBase keeps the benchmark's direct clients clear of the
	// ranges the servers and gateways reserve (server.GatewayClientBase,
	// kvapi.ClientBase).
	kvClientBase = 1 << 22
)

// kvOp is one generated facade operation.
type kvOp struct {
	Get   bool
	Key   int64
	Value int64
	Token string
}

// kvStream is the seeded operation stream: half GETs over kvKeys keys,
// half PUTs each carrying a fresh idempotency token.
type kvStream struct {
	rng  *ids.RNG
	seed uint64
	n    int
}

func newKVStream(seed uint64) *kvStream { return &kvStream{rng: ids.NewRNG(seed), seed: seed} }

func (s *kvStream) next() kvOp {
	s.n++
	op := kvOp{Key: int64(s.rng.Intn(kvKeys)), Get: s.rng.Bool(0.5)}
	if !op.Get {
		op.Value = int64(s.rng.Intn(1 << 30))
		op.Token = fmt.Sprintf("pb-%d-%d", s.seed, s.n)
	}
	return op
}

func (op kvOp) String() string {
	if op.Get {
		return fmt.Sprintf("GET %d", op.Key)
	}
	return fmt.Sprintf("PUT %d %d %s", op.Key, op.Value, op.Token)
}

func (op kvOp) spanName() string {
	if op.Get {
		return "kvapi.http.get"
	}
	return "kvapi.http.put"
}

// direct is the operation as a replicated-object call.
func (op kvOp) direct() (string, []lang.Value) {
	if op.Get {
		return workload.KVGet, []lang.Value{op.Key}
	}
	return workload.KVPut, []lang.Value{op.Key, op.Value, kvapi.HashToken(op.Token)}
}

// kvReply is the facade's response document.
type kvReply struct {
	Prev *int64 `json:"prev"`
}

// do performs op through the gateway; it returns the PUT's prev.
func (op kvOp) do(cl *http.Client, base string) (*int64, error) {
	var req *http.Request
	var err error
	if op.Get {
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/kv/%d", base, op.Key), nil)
	} else {
		body := []byte(`{"value":` + strconv.FormatInt(op.Value, 10) + `}`)
		req, err = http.NewRequest(http.MethodPut, fmt.Sprintf("%s/kv/%d?token=%s", base, op.Key, op.Token), bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if op.Get && resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s: HTTP %d %s", op, resp.StatusCode, b)
	}
	var rep kvReply
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", op, err)
	}
	return rep.Prev, nil
}

// replayed is a PUT whose first answer is kept for the exactly-once
// check.
type replayed struct {
	op   kvOp
	prev *int64
}

// kvGen drives the facade open loop and the direct-wire sample.
type kvGen struct {
	base   string
	http   *http.Client
	gens   []*wireGen
	stream *kvStream
	spans  *spanLog
	keep   []replayed
	puts   int
}

// httpPhase offers HTTP load at rate for dur. With directRate > 0 a
// concurrent direct-wire sample at that rate runs beside it and its
// latencies are returned too.
func (g *kvGen) httpPhase(rate float64, dur time.Duration, directRate float64) (*phaseResult, []float64) {
	res := &phaseResult{}
	var mu sync.Mutex
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	spans := g.spans
	var direct []float64
	var dwg sync.WaitGroup
	if directRate > 0 {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for _, ph := range eachGen(g.gens, func(_ int, w *wireGen) *phaseResult {
				return w.phase(directRate/float64(len(g.gens)), dur, nil, settleTimeout)
			}) {
				direct = append(direct, ph.Intent...)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var reqIdx int64
	for intent := time.Duration(0); intent < dur; intent += interval {
		if gap := intent - time.Since(start); gap > 0 {
			time.Sleep(gap)
		}
		res.Late = append(res.Late, ms(time.Since(start)-intent))
		res.Attempted++
		if inFlight.Load() >= 4096 {
			res.Shed++
			continue
		}
		op := g.stream.next()
		keep := false
		if !op.Get {
			g.puts++
			keep = g.puts%16 == 0 && g.puts/16 <= kvReplays
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(op kvOp, intent time.Duration, req int64, keep bool) {
			defer wg.Done()
			id, st := spans.begin()
			t0 := time.Now()
			prev, err := op.do(g.http, g.base)
			done := time.Since(start)
			spans.end(id, st, 0, op.spanName(), req)
			inFlight.Add(-1)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if res.Other < 3 {
					logf("kv-http: %v", err)
				}
				res.Other++
				return
			}
			res.Completed++
			res.Intent = append(res.Intent, ms(done-intent))
			res.Service = append(res.Service, ms(time.Since(t0)))
			if keep {
				g.keep = append(g.keep, replayed{op: op, prev: prev})
			}
		}(op, intent, reqIdx, keep)
		reqIdx++
	}
	wg.Wait()
	dwg.Wait()
	return res, direct
}

// shardGens dials one generator per shard, each drawing the seeded
// operations that route to its shard.
func shardGens(ring shard.RingConfig, seed uint64) ([]*wireGen, error) {
	r, err := shard.NewRing(ring)
	if err != nil {
		return nil, err
	}
	var gens []*wireGen
	for k, gc := range r.Config().Groups {
		k := k
		st := newKVStream(seed*1000003 + uint64(k))
		next := func() replica.Call {
			for {
				op := st.next()
				if r.Route(workload.KVRouteKey(op.Key)) == k {
					method, args := op.direct()
					return replica.Call{Method: method, Args: args}
				}
			}
		}
		tag := fmt.Sprintf("g%d", gc.ID)
		g, err := newWireGen("perfbench-"+tag, tag, gc.Members, kvClientBase, next)
		if err != nil {
			closeGens(gens)
			return nil, err
		}
		gens = append(gens, g)
	}
	return gens, nil
}

func closeGens(gens []*wireGen) {
	for _, g := range gens {
		g.close()
	}
}

// allGroups polls every shard.
func allGroups(gens []*wireGen) ([][]*memberStatus, error) {
	var out [][]*memberStatus
	for _, g := range gens {
		sts, err := g.statuses()
		if err != nil {
			return nil, err
		}
		out = append(out, sts)
	}
	return out, nil
}

// eachGen runs fn on every shard's generator concurrently.
func eachGen(gens []*wireGen, fn func(k int, g *wireGen) *phaseResult) []*phaseResult {
	out := make([]*phaseResult, len(gens))
	var wg sync.WaitGroup
	for k, g := range gens {
		wg.Add(1)
		go func(k int, g *wireGen) {
			defer wg.Done()
			out[k] = fn(k, g)
		}(k, g)
	}
	wg.Wait()
	return out
}

// convergeGroups waits until every group's members agree on completed
// count and then compares their hashes.
func convergeGroups(gens []*wireGen, min []int) ([][]*memberStatus, bool, error) {
	out := make([][]*memberStatus, len(gens))
	same := true
	for k, g := range gens {
		sts, ok, err := converge(g, min[k])
		if err != nil {
			return nil, false, fmt.Errorf("shard %d: %w", k, err)
		}
		out[k] = sts
		same = same && ok
	}
	return out, same, nil
}

func gatewayMetrics(cl *http.Client, base string) (retries float64, err error) {
	resp, err := cl.Get(base + "/metricsz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Retries float64 `json:"retries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m.Retries, err
}

func runKVHTTP(o opts, r *report) error {
	t0 := time.Now()
	c, err := bootCluster(filepath.Join(o.bin, "detmt-server"), o.work, 3, kvShards, false,
		steadyArgs("-shards", strconv.Itoa(kvShards), "-kv", "-adaptive-tick")...)
	if err != nil {
		return err
	}
	defer c.close()
	gwPort, err := freePortBlock(1)
	if err != nil {
		return err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", gwPort)
	var addrs []string
	for _, id := range c.members() {
		addrs = append(addrs, c.addrs[id])
	}
	gw, err := startProc(o.work, filepath.Join(o.bin, "detmt-gateway"), "gateway",
		"-listen", fmt.Sprintf("127.0.0.1:%d", gwPort), "-servers", strings.Join(addrs, ","), "-epochs", o.work)
	if err != nil {
		return err
	}
	defer gw.kill()
	hc := &http.Client{Timeout: 35 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: kvHTTPConns, MaxIdleConnsPerHost: kvHTTPConns, IdleConnTimeout: time.Minute}}
	defer hc.CloseIdleConnections()
	if err := waitHealthy(hc, base, time.Now().Add(20*time.Second)); err != nil {
		return err
	}
	ring, err := server.FetchRing(addrs, 5*time.Second, nil, nil)
	if err != nil {
		return err
	}
	// The direct-wire dialers are the benchmark's own (one per shard):
	// a second server.ShardClients beside the gateway's would announce
	// the same transport name with a newer epoch and evict the gateway's
	// connections.
	gens, err := shardGens(ring, o.seed)
	if err != nil {
		return err
	}
	defer closeGens(gens)
	g := &kvGen{base: base, http: hc, gens: gens, stream: newKVStream(o.seed)}

	// Warm-up: direct wire until every group passed the steady-state
	// gate, then the facade at the window's rate.
	var warmed atomic.Bool
	allWarm := func() bool {
		if warmed.Load() {
			return true
		}
		gs, err := allGroups(gens)
		if err != nil {
			return false
		}
		for _, sts := range gs {
			if !steadyGate(sts) {
				return false
			}
		}
		warmed.Store(true)
		return true
	}
	var warm outcome
	for _, ph := range eachGen(gens, func(_ int, w *wireGen) *phaseResult {
		return w.phase(kvWarmRate/float64(len(gens)), 0, allWarm, settleTimeout)
	}) {
		warm = warm.plus(ph.outcome)
	}
	hw, _ := g.httpPhase(kvRate, kvHTTPWarmup, 0)
	warm = warm.plus(hw.outcome)
	if warm.failed() > 0 {
		r.fail("warm-up: %d of %d requests failed", warm.failed(), warm.Attempted)
	}
	g.keep, g.puts = nil, 0
	pre, warmSame, err := convergeGroups(gens, make([]int, len(gens)))
	r.set("setup_s", "s", elapsedS(t0))
	if err != nil {
		warmupStalled(r, warm, err)
		return nil
	}
	base0 := make([]int, len(pre))
	for k, sts := range pre {
		if !warmSame {
			r.note("warm-up check shard %d:%s", k, describe(sts))
		}
		if !steadyGate(sts) {
			r.fail("steady-state gate: shard %d has not delivered %d slots with trace_dropped > 0", k, warmSlots)
		}
		for _, s := range sts {
			if s.View != 0 {
				r.fail("steady-state gate: shard %d member %v is in view %d before the window", k, s.ID, s.View)
			}
		}
		base0[k] = maxCompleted(sts)
	}
	r.set("vclock.follower_lead_ms", "ms", followerLeadMs(gens[0]))
	r.set("vclock.follower_lead_ms_g1", "ms", followerLeadMs(gens[1]))
	retries0, _ := gatewayMetrics(hc, base)

	lw := &windowLayers{c: c, extra: []*proc{gw}, pre: pre[0]}
	lw.begin()
	var win *phaseResult
	var direct []float64
	if o.trace {
		half := time.Duration(o.seconds) * time.Second / 2
		s0 := selfCPUTicks()
		plain, _ := g.httpPhase(kvRate, half, 0)
		s1 := selfCPUTicks()
		g.spans = newSpanLog()
		traced, d := g.httpPhase(kvRate, time.Duration(o.seconds)*time.Second-half, 20)
		direct = d
		s2 := selfCPUTicks()
		traceOverhead(r, plain.Intent, traced.Intent,
			cpuMsPerKreq(s0, s1, plain.Completed), cpuMsPerKreq(s1, s2, traced.Completed))
		win = mergePhases(plain, traced)
	} else {
		win, _ = g.httpPhase(kvRate, time.Duration(o.seconds)*time.Second, 0)
	}
	lw.end(r, win.Completed, win.Service, 0, 0)
	retries1, _ := gatewayMetrics(hc, base)

	// Outputs: every group's members identical, then every kept PUT
	// re-sent with its token must answer its original prev.
	post, same, err := convergeGroups(gens, base0)
	if err != nil {
		r.fail("output check: %v", err)
	} else if !same {
		for k, sts := range post {
			r.note("window check shard %d:%s", k, describe(sts))
		}
	}
	mismatch := 0
	if err != nil {
		// An unconverged cluster can leave each replay waiting out the
		// client timeout; the run is invalid already.
		r.note("token replay skipped: the output check failed")
		g.keep = nil
	}
	for _, k := range g.keep {
		prev, err := k.op.do(hc, base)
		if err != nil || !samePrev(prev, k.prev) {
			mismatch++
		}
	}
	if mismatch > 0 {
		r.fail("token replay: %d of %d re-sent PUTs answered a different prev", mismatch, len(g.keep))
	}
	r.set("token_replays", "count", float64(len(g.keep)))
	r.out = win.outcome
	diverged := !warmSame || (err == nil && !same)
	r.out.Diverged = diverged || mismatch > 0
	windowMetrics(r, win, float64(o.seconds), !diverged)

	if post != nil {
		var perShard []float64
		for k := range pre {
			statusLayers(r, pre[k], post[k], win.Completed)
			perShard = append(perShard, float64(maxCompleted(post[k])-base0[k]))
		}
		r.set("shard.imbalance", "ratio", imbalance(perShard))
	}
	r.set("kvapi.noseq_retries", "count", retries1-retries0)
	r.set("replica.send_us", "us", 0)
	r.set("replica.replies_per_req", "count", 0)
	if o.trace {
		hp50, _ := percentile(sortedCopy(win.Intent), 50)
		dp50, _ := percentile(sortedCopy(direct), 50)
		r.set("kvapi.facade_p50_ms", "ms", hp50-dp50)
		if err := g.spans.write(filepath.Join(o.work, "spans.jsonl")); err != nil {
			return err
		}
		gw.kill()
		c.close()
		st := newKVStream(o.seed)
		calls := make([]replica.Call, 4096)
		for i := range calls {
			method, args := st.next().direct()
			calls[i] = replica.Call{Method: method, Args: args}
		}
		r.set("recovery.replayed_tail", "count", 0)
		if err := recoveryLayers(r, workload.KVSource(workload.DefaultKV()), calls); err != nil {
			return err
		}
		return microLayers(r, calls, o.seed)
	}
	return nil
}

// imbalance is the largest per-shard count over the mean.
func imbalance(counts []float64) float64 {
	m, mx := mean(counts), 0.0
	for _, c := range counts {
		if c > mx {
			mx = c
		}
	}
	if m == 0 {
		return 0
	}
	return mx / m
}

func samePrev(a, b *int64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

func waitHealthy(cl *http.Client, base string, deadline time.Time) error {
	for {
		resp, err := cl.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway %s not healthy", base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
