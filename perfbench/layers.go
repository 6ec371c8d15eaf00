package main

import (
	"fmt"
	"sort"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/core"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/recovery"
	"detmt/internal/replica"
	"detmt/internal/trace"
	"detmt/internal/vclock"
	"detmt/internal/wire"
	"detmt/internal/workload"
)

// windowLayers samples process counters around a measured window.
type windowLayers struct {
	c     *cluster
	extra []*proc // non-replica server processes (the gateway)
	gen   *wireGen
	pre   []*memberStatus

	cpu0     map[ids.ReplicaID]int64
	extra0   []int64
	self0    int64
	rss0     map[ids.ReplicaID]float64
	replies0 int
}

func (w *windowLayers) begin() {
	w.cpu0 = w.c.cpuTicks()
	w.rss0 = map[ids.ReplicaID]float64{}
	for id, p := range w.c.procs {
		w.rss0[id] = p.rssMB()
	}
	for _, p := range w.extra {
		w.extra0 = append(w.extra0, p.cpuTicks())
	}
	w.self0 = selfCPUTicks()
	if w.gen != nil {
		w.replies0 = w.gen.replyStats()
	}
}

// end derives the CPU, memory and client-side layer metrics of a window
// with the given number of completions.
func (w *windowLayers) end(r *report, completed int, service []float64, sendNs int64, submitted int) {
	cpu1 := w.c.cpuTicks()
	self1 := selfCPUTicks()
	seq := w.pre[0].Sequencer
	var total, follower int64
	var growth float64
	nf := 0
	for id, t := range cpu1 {
		d := t - w.cpu0[id]
		total += d
		if id != seq {
			follower += d
			nf++
		}
		if g := w.c.procs[id].rssMB() - w.rss0[id]; g > growth {
			growth = g
		}
	}
	var extra int64
	for i, p := range w.extra {
		extra += p.cpuTicks() - w.extra0[i]
	}
	r.set("cpu_ms_per_kreq", "ms", cpuMsPerKreq(0, total+extra, completed))
	r.set("rss_mb", "MiB", w.c.maxRSSMB())
	r.set("server.seq_cpu_ms_per_kreq", "ms", cpuMsPerKreq(w.cpu0[seq], cpu1[seq], completed))
	if nf > 0 {
		r.set("server.follower_cpu_ms_per_kreq", "ms", cpuMsPerKreq(0, follower, completed)/float64(nf))
	}
	r.set("server.rss_growth_mb", "MiB", growth)
	gen := cpuMsPerKreq(w.self0, self1, completed)
	r.set("server.gen_cpu_ms_per_kreq", "ms", gen)
	if gen > genCPUBoundMs {
		r.fail("generator CPU %.0f ms per 1000 requests exceeds %.0f ms", gen, genCPUBoundMs)
	}
	r.set("kvapi.gateway_cpu_ms_per_kreq", "ms", cpuMsPerKreq(0, extra, completed))
	s := sortedCopy(service)
	p50, _ := percentile(s, 50)
	p99, _ := percentile(s, 99)
	r.set("replica.service_p50_ms", "ms", p50)
	r.set("replica.service_p99_ms", "ms", p99)
	if submitted > 0 {
		r.set("replica.send_us", "us", float64(sendNs)/1e3/float64(submitted))
	}
	if w.gen != nil && completed > 0 {
		r.set("replica.replies_per_req", "count", float64(w.gen.replyStats()-w.replies0)/float64(completed))
	}
}

// statusLayers derives the per-layer metrics read from the members'
// status documents before (pre) and after (post) the window. Counters
// are differenced per member; a member restarted in between counts from
// zero.
func statusLayers(r *report, pre, post []*memberStatus, completed int) {
	before := map[ids.ReplicaID]*memberStatus{}
	var v0, v1, lag uint64
	for _, s := range pre {
		before[s.ID] = s
		if s.View > v0 {
			v0 = s.View
		}
	}
	var performed, retries int
	var nestedP99 float64
	for _, s := range post {
		if s.View > v1 {
			v1 = s.View
		}
		if s.GossipLagSeqs > lag {
			lag = s.GossipLagSeqs
		}
		performed += s.Nested.Performed
		retries += s.Nested.Retries
		if b := before[s.ID]; b != nil && s.Completed >= b.Completed {
			performed -= b.Nested.Performed
			retries -= b.Nested.Retries
		}
		if s.Nested.LatencyP99Ms > nestedP99 {
			nestedP99 = s.Nested.LatencyP99Ms
		}
	}
	r.add("gcs.view_changes", "count", float64(v1-v0))
	r.max("gcs.gossip_lag_seqs", "count", float64(lag))
	if completed > 0 {
		r.add("replica.nested_per_req", "count", float64(performed)/float64(completed))
	}
	r.max("replica.nested_p99_ms", "ms", nestedP99)
	r.add("replica.nested_retries", "count", float64(retries))
}

func (r *report) add(name, unit string, v float64) { r.set(name, unit, r.vals[name]+v) }

func (r *report) max(name, unit string, v float64) {
	if old, ok := r.vals[name]; !ok || v > old {
		r.set(name, unit, v)
	}
}

// traceOverhead compares the untraced and traced halves of a traced
// window on the same boot.
func traceOverhead(r *report, plain, traced []float64, plainCPU, tracedCPU float64) {
	p0, _ := percentile(sortedCopy(plain), 50)
	p1, _ := percentile(sortedCopy(traced), 50)
	r.set("trace.overhead_p50_ms", "ms", p1-p0)
	r.set("trace.overhead_cpu_ms_per_kreq", "ms", tracedCPU-plainCPU)
}

// timeLoop runs fn n times, five rounds, and returns the median ns per
// call.
func timeLoop(n int, fn func(i int)) float64 {
	var rounds []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	sort.Float64s(rounds)
	return rounds[2]
}

// microLayers times the public entry points of the in-process layers,
// the wire codec on the workload's own calls (the cluster is down by
// then, so they do not compete with it for CPU).
func microLayers(r *report, calls []replica.Call, seed uint64) error {
	// wire: the workload's calls as sequenced request envelopes.
	envs := make([]gcs.Envelope, len(calls))
	for i, c := range calls {
		envs[i] = gcs.Envelope{
			Kind: gcs.EnvSequenced, Seq: uint64(i + 1), Origin: gcs.Origin{Client: ids.ClientID(i%16 + 1), IsClient: true},
			UID: uint64(i + 1), Stamp: time.Duration(i) * time.Millisecond,
			Payload: replica.Request{Req: ids.MakeRequestID(ids.ClientID(i%16+1), uint32(i+1)), Method: c.Method, Args: c.Args},
		}
	}
	encoded := make([][]byte, len(envs))
	var bytes int
	for i, e := range envs {
		b, err := wire.AppendEnvelope(nil, e)
		if err != nil {
			return fmt.Errorf("wire.AppendEnvelope: %v", err)
		}
		encoded[i] = b
		bytes += len(b)
	}
	buf := make([]byte, 0, 1024)
	r.set("wire.encode_ns_per_env", "ns", timeLoop(len(envs)*8, func(i int) {
		buf, _ = wire.AppendEnvelope(buf[:0], envs[i%len(envs)])
	}))
	r.set("wire.decode_ns_per_env", "ns", timeLoop(len(envs)*8, func(i int) {
		wire.DecodeEnvelope(encoded[i%len(encoded)])
	}))
	r.set("wire.bytes_per_slot", "B", float64(bytes)/float64(len(envs)))

	// trace: one event append on a bounded trace.
	tr := trace.New()
	tr.SetRetention(1 << 16)
	r.set("trace.record_ns", "ns", timeLoop(1<<18, func(i int) {
		tr.Record(trace.Event{At: time.Duration(i), Thread: ids.ThreadID(i%64 + 1), Kind: trace.KindLockAcq, Sync: ids.NoSync, Mutex: ids.MutexID(i % 16)})
	}))

	// core: one uncontended MAT lock/unlock decision pair.
	r.set("core.lock_pair_ns", "ns", lockPairNs())

	half, full := gcsDeliver()
	r.set("gcs.deliver_us_per_slot_half", "us", half)
	r.set("gcs.deliver_us_per_slot_full", "us", full)
	if half > 0 {
		r.set("gcs.retention_cost_ratio", "ratio", full/half)
	}

	wait, execUs, err := paperFig1Replay(seed)
	if err != nil {
		return err
	}
	r.set("core.sched_wait_virt_ms", "ms", wait)
	r.set("lang.exec_us_per_req", "us", execUs)
	return nil
}

func lockPairNs() float64 {
	const n = 1 << 18
	var rounds []float64
	for k := 0; k < 5; k++ {
		v := vclock.NewVirtual()
		rt := core.NewRuntime(core.Options{Clock: v, Scheduler: core.NewMAT(false)})
		done := make(chan struct{})
		var ns float64
		rt.Submit(1, 0, func(t *core.Thread) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				t.Lock(ids.NoSync, 1)
				t.Unlock(ids.NoSync, 1)
			}
			ns = float64(time.Since(t0).Nanoseconds()) / n
		}, func() { close(done) })
		<-done
		rounds = append(rounds, ns)
	}
	sort.Float64s(rounds)
	return rounds[2]
}

// gcsDeliver drives a one-member simulator group through Broadcast and
// its deliver callback and returns the wall µs per delivered slot with
// the sequenced log half full and past twice its retention.
func gcsDeliver() (half, full float64) {
	v := vclock.NewVirtual()
	g := gcs.NewGroup(gcs.Config{Clock: v, Members: []ids.ReplicaID{1}, DetectTimeout: time.Hour})
	defer g.Close()
	delivered := 0
	g.Node(1).SetDeliver(func(gcs.Message) { delivered++ })
	const chunk = 256
	ret := gcs.DefaultSeqRetention
	// run broadcasts until `upto` slots are delivered, returning wall
	// µs per slot.
	run := func(upto int) float64 {
		done := make(chan struct{})
		from := delivered
		t0 := time.Now()
		v.Go(func() {
			defer close(done)
			for delivered < upto {
				for i := 0; i < chunk; i++ {
					g.Node(1).Broadcast(int64(i))
				}
				v.Sleep(time.Millisecond)
			}
		})
		<-done
		if delivered == from {
			return 0
		}
		return float64(time.Since(t0).Microseconds()) / float64(delivered-from)
	}
	run(ret/2 - 2048)
	half = run(ret / 2)
	run(2 * ret)
	full = run(2*ret + 2048)
	return half, full
}

// simReplica runs calls, one every gap of virtual time, against the
// analysed object on one simulated MAT replica and returns the replica
// once every call has been answered.
func simReplica(res *analysis.Result, calls []replica.Call, gap time.Duration) (*replica.Replica, error) {
	v := vclock.NewVirtual()
	g := gcs.NewGroup(gcs.Config{Clock: v, Members: []ids.ReplicaID{1}, Latency: 100 * time.Microsecond})
	defer g.Close()
	rep := replica.New(replica.Config{ID: 1, Clock: v, Group: g, Analysis: res, Kind: replica.KindMAT,
		Role: replica.RoleActive, NestedLatency: 12 * time.Millisecond})
	rep.Instance().SetField("state", int64(0))
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		grp := vclock.NewGroup(v)
		for i, c := range calls {
			cl := replica.NewClient(v, g, ids.ClientID(i+1))
			c := c
			grp.Go(func() { cl.Invoke(c.Method, c.Args...) })
			v.Sleep(gap)
		}
		grp.Wait()
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("simulated replica did not finish")
	}
	return rep, nil
}

// paperFig1Replay generates the total order of 200 seeded requests of
// the paper's Fig. 1 object at its defaults, arriving at 300 req/s of
// virtual time, on a simulated replica (its log carries the nested-call
// outcomes), then replays that order with replica.ReplayDetached under
// MAT on a fresh virtual clock. It returns the replay's mean virtual
// admission plus lock wait per request and its wall µs per request
// (interpreter and scheduler together).
func paperFig1Replay(seed uint64) (waitMs, execUs float64, err error) {
	const n = 200
	cfg := workload.DefaultFig1()
	res, err := analysis.Analyze(lang.MustParse(workload.Fig1Source(cfg)))
	if err != nil {
		return 0, 0, err
	}
	st := newFig1Stream(cfg, seed)
	calls := make([]replica.Call, n)
	for i := range calls {
		calls[i] = st.next()
	}
	live, err := simReplica(res, calls, time.Second/300)
	if err != nil {
		return 0, 0, err
	}
	v := vclock.NewVirtual()
	var rep *replica.Replica
	done := make(chan struct{})
	t0 := time.Now()
	v.Go(func() {
		defer close(done)
		rep = replica.ReplayDetached(v, replica.Config{Analysis: res, Kind: replica.KindMAT}, live.Log())
		rep.Instance().SetField("state", int64(0))
		for rep.Completed() < n {
			v.Sleep(time.Millisecond)
		}
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return 0, 0, fmt.Errorf("detached replay did not finish")
	}
	wall := time.Since(t0)
	// Admission wait is admit→start; lock wait is lockreq→lockacq.
	admit := map[ids.ThreadID]time.Duration{}
	req := map[ids.ThreadID]time.Duration{}
	var total time.Duration
	for _, e := range rep.Runtime().Trace().Events() {
		switch e.Kind {
		case trace.KindAdmit:
			admit[e.Thread] = e.At
		case trace.KindStart:
			total += e.At - admit[e.Thread]
		case trace.KindLockReq:
			req[e.Thread] = e.At
		case trace.KindLockAcq:
			if t, ok := req[e.Thread]; ok {
				total += e.At - t
				delete(req, e.Thread)
			}
		}
	}
	return ms(total) / n, float64(wall.Microseconds()) / n, nil
}

// recoveryLayers runs the workload's own seeded calls on a simulated
// replica of its object, captures a checkpoint the way a server does at
// a quiescent point, and reports its encoded size and decode time.
func recoveryLayers(r *report, src string, calls []replica.Call) error {
	res, err := analysis.Analyze(lang.MustParse(src))
	if err != nil {
		return err
	}
	rep, err := simReplica(res, calls, time.Millisecond)
	if err != nil {
		return err
	}
	c := &recovery.Checkpoint{
		Seq:       rep.LastSeq(),
		Completed: uint64(rep.Completed()),
		Fields:    rep.Instance().Snapshot(),
		Hashes:    rep.Runtime().Trace().ExportHashState(),
	}
	data, err := c.Encode()
	if err != nil {
		return fmt.Errorf("recovery: checkpoint encode: %v", err)
	}
	decodeLayer(r, data)
	return nil
}

// decodeLayer reports a checkpoint's encoded size and decode time.
func decodeLayer(r *report, data []byte) {
	r.set("recovery.checkpoint_kb", "KiB", float64(len(data))/1024)
	r.set("recovery.decode_ms", "ms", timeLoop(5, func(int) {
		if _, err := recovery.Decode(data); err != nil {
			r.fail("recovery: checkpoint decode: %v", err)
		}
	})/1e6)
}
