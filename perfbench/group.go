package main

import (
	"fmt"
	"path/filepath"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/replica"
	"detmt/internal/workload"
)

// warmSlots is the steady-state gate: every group must have delivered
// twice the sequenced-log retention before a window starts, so the
// window sees the log's steady-state cost, not its fill transient.
const warmSlots = 2 * gcs.DefaultSeqRetention

// genLateBoundMs bounds the generator's p99 lateness against its
// schedule inside a window; above it the offered load was not the one
// specified. Typical p99 is 1–5 ms on 2 cores; a starved generator runs
// tens of ms late.
const genLateBoundMs = 25.0

// genCPUBoundMs bounds the generator's own CPU per 1000 completions in a
// window: above one CPU-millisecond per request it competes with the
// servers for the machine rather than only offering load. Observed:
// 100–275 ms on 2 cores.
const genCPUBoundMs = 1000.0

const (
	// searchBudget stops the ceiling search once the run is this old, so
	// a run ends within 180 s even when every step waits out its settle
	// and convergence timeouts (up to 22 s a step).
	searchBudget   = 140 * time.Second
	ceilingStep    = 2 * time.Second
	ceilingResPct  = 5.0
	settleTimeout  = 10 * time.Second
	convergeWithin = 10 * time.Second
)

// groupWorkload is a workload on one replication group of three
// detmt-server processes, driven over direct wire.
type groupWorkload struct {
	args     []string // detmt-server flags every member shares
	data     bool     // give every member a -data directory
	body     workload.Fig1Config
	warmRate float64 // offered until the steady-state gate holds
	rate     float64 // offered in the measured window
	// limitMs is the ceiling search's p99 limit and ladder the rates it
	// walks before bisecting; a workload without a ladder runs no search.
	limitMs  float64
	ladder   []float64
	failover bool // kill and restart the sequencer inside the window
}

// e15Body is E15's request body: the per-slot cost of wire, gcs and
// vclock dominates, the interpreter does almost nothing.
func e15Body() workload.Fig1Config {
	wl := workload.DefaultFig1()
	wl.Iterations = 1
	wl.Mutexes = 16
	return wl
}

// flatBody is e15Body without nested calls. The body draws the nested
// choice into each request's arguments, so the servers are unchanged.
func flatBody() workload.Fig1Config {
	wl := e15Body()
	wl.PNested = 0
	return wl
}

var e15Args = []string{"-scheduler", "MAT", "-iterations", "1", "-mutexes", "16", "-adaptive-tick"}

// steadyDetect is the failure-detector window of the steady-state
// workloads. On a 2-core host that also runs the generator a server can
// be descheduled past the 50 ms default, and the survivors then depose a
// live sequencer (README.md, "Findings"). failover keeps the default:
// it measures detection.
var steadyDetect = []string{"-detect-timeout", "300ms"}

// steadyArgs is args plus steadyDetect.
func steadyArgs(args ...string) []string {
	return append(append([]string(nil), args...), steadyDetect...)
}

var (
	seqHot = groupWorkload{
		args: steadyArgs(e15Args...), body: e15Body(), warmRate: 1500, rate: 1500,
		limitMs: 100, // the E15 SLO
		ladder:  []float64{1900, 2400, 3000, 3750, 4700, 5900},
	}
	// seqFlat is seq-hot's cluster and rate without nested calls and
	// without a ceiling search: the per-slot cost of wire, gcs and vclock
	// alone, on requests whose schedule does not depend on when a
	// replica sees a nested outcome (README.md, "Findings").
	seqFlat = groupWorkload{
		args: steadyArgs(e15Args...), body: flatBody(), warmRate: 1500, rate: 1500,
	}
	// paperFig1 is the paper's Fig. 1 object at its defaults (10
	// iterations over 100 mutexes, p = 0.2 nested calls of 12 ms virtual
	// through the in-process backend, p = 0.2 computations of 1.5 ms).
	// Its p99 is about 110 ms already at 300 req/s, so its ceiling
	// limit is its own.
	paperFig1 = groupWorkload{
		args: steadyArgs("-scheduler", "MAT"), body: workload.DefaultFig1(), warmRate: 300, rate: 300,
		limitMs: 250,
		ladder:  []float64{375, 470, 590, 740, 920},
	}
	// failoverLoad is seq-hot's cluster with checkpoints on disk; it
	// warms at seq-hot's rate.
	failoverLoad = groupWorkload{
		args: append(append([]string(nil), e15Args...), "-checkpoint-every", "2048"), data: true,
		body: e15Body(), warmRate: 1500, rate: 800, failover: true,
	}
)

// steadyGate reports whether every status shows a warmed group.
func steadyGate(sts []*memberStatus) bool {
	for _, s := range sts {
		if s.slots() < warmSlots || s.TraceDropped == 0 {
			return false
		}
	}
	return true
}

// converge waits until every member reports the same completed count
// (at least min) and the same ConsistencyHash. A member can report the
// last completion a moment before that request's final trace events
// are hashed, so a hash mismatch at equal counts is re-polled for
// hashSettle before it counts as divergence. It returns the last
// statuses and whether the group is identical.
func converge(gen *wireGen, min int) ([]*memberStatus, bool, error) {
	const hashSettle = 2 * time.Second
	deadline := time.Now().Add(convergeWithin)
	var mismatchSince time.Time
	for {
		sts, err := gen.statuses()
		if err == nil {
			counted, hashed := true, true
			for _, s := range sts {
				if s.Completed < min || s.Completed != sts[0].Completed {
					counted = false
				}
				if s.Hash != sts[0].Hash {
					hashed = false
				}
			}
			switch {
			case counted && hashed:
				return sts, true, nil
			case counted && mismatchSince.IsZero():
				mismatchSince = time.Now()
			case counted && time.Since(mismatchSince) > hashSettle:
				return sts, false, nil
			case !counted:
				mismatchSince = time.Time{}
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("members did not reach one completed count >= %d within %v:%s", min, convergeWithin, describe(sts))
			}
			return sts, false, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// describe summarises statuses for a divergence note.
func describe(sts []*memberStatus) string {
	out := ""
	for _, s := range sts {
		out += fmt.Sprintf(" R%d completed=%d state=%d hash=%x recovery=%s", s.ID, s.Completed, s.State, s.Hash, s.Recovery)
	}
	return out
}

// leadPolls is how many concurrent polls followerLeadMs takes: one
// reading can land on a virtual-clock jump.
const leadPolls = 5

// followerLeadMs is the median over leadPolls concurrent polls of the
// largest follower virtual clock minus the sequencer's. The sign decides
// the boot's latency mode (see README.md).
func followerLeadMs(gen *wireGen) float64 {
	var leads []float64
	for i := 0; i < leadPolls; i++ {
		if sts, err := gen.statuses(); err == nil {
			leads = append(leads, followerLead(sts))
		}
		time.Sleep(20 * time.Millisecond)
	}
	v, _ := percentile(sortedCopy(leads), 50)
	return v
}

// followerLead is the largest follower virtual clock minus the
// sequencer's in one concurrent poll.
func followerLead(sts []*memberStatus) float64 {
	var seq *memberStatus
	for _, s := range sts {
		if s.ID == s.Sequencer {
			seq = s
		}
	}
	if seq == nil {
		return 0
	}
	lead, first := 0.0, true
	for _, s := range sts {
		if s == seq {
			continue
		}
		if d := s.NowVirtMs - seq.NowVirtMs; first || d > lead {
			lead, first = d, false
		}
	}
	return lead
}

func maxCompleted(sts []*memberStatus) int {
	m := 0
	for _, s := range sts {
		if s.Completed > m {
			m = s.Completed
		}
	}
	return m
}

// latencyMetrics reports the intent-latency percentiles of a window.
func latencyMetrics(r *report, intent []float64) {
	s := sortedCopy(intent)
	p50, _ := percentile(s, 50)
	p99, _ := percentile(s, 99)
	r.set("p50_ms", "ms", p50)
	r.set("p99_ms", "ms", p99)
	r.set("mean_ms", "ms", mean(intent))
	r.set("latency_samples", "count", float64(len(s)))
	if reportable(len(s), 99.9) {
		p999, _ := percentile(s, 99.9)
		r.set("p999_ms", "ms", p999)
	} else {
		r.note("p999_ms not reported: fewer than %d of %d samples lie beyond it", minBeyond, len(s))
	}
}

// runGroup runs one single-group workload: boot, warm to the steady
// state, measure the window, check the outputs, then either search the
// ceiling (untraced) or time the in-process layers (traced).
func runGroup(o opts, r *report, w groupWorkload) error {
	t0 := time.Now()
	c, err := bootCluster(filepath.Join(o.bin, "detmt-server"), o.work, 3, 0, w.data, w.args...)
	if err != nil {
		return err
	}
	defer c.close()
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	gen, err := newWireGen("perfbench", "", c.addrs, 0, newFig1Stream(w.body, o.seed).next)
	if err != nil {
		return err
	}
	defer gen.close()

	warm := gen.phase(w.warmRate, 0, func() bool {
		sts, err := gen.statuses()
		return err == nil && steadyGate(sts)
	}, settleTimeout)
	if warm.failed() > 0 {
		r.fail("warm-up: %d of %d requests failed", warm.failed(), warm.Attempted)
	}
	pre, warmSame, err := converge(gen, 0)
	r.set("setup_s", "s", elapsedS(t0))
	if err != nil {
		warmupStalled(r, warm.outcome, err)
		return nil
	}
	if !warmSame {
		r.note("warm-up check:%s", describe(pre))
	}
	if !steadyGate(pre) {
		r.fail("steady-state gate: slots >= %d and trace_dropped > 0 not reached", warmSlots)
	}
	for _, s := range pre {
		if s.View != 0 {
			r.fail("steady-state gate: member %v is in view %d before the window", s.ID, s.View)
		}
	}
	r.set("vclock.follower_lead_ms", "ms", followerLeadMs(gen))
	base := maxCompleted(pre)

	lw := &windowLayers{c: c, gen: gen, pre: pre}
	lw.begin()
	var fo *failoverRun
	if w.failover {
		fo = startFailover(c, gen, pre[0].Sequencer, time.Duration(o.seconds)*time.Second)
	}
	win := window(r, gen, w.rate, o, spans)
	if fo != nil {
		fo.finish(r, win)
	}
	lw.end(r, win.Completed, win.Service, win.SendNs, win.Attempted-win.Shed)
	post, same, err := converge(gen, base+win.Completed)
	if err != nil {
		r.fail("output check: %v", err)
	} else if !same {
		r.note("window check:%s", describe(post))
	}
	r.out = win.outcome
	r.out.Diverged = !warmSame || (err == nil && !same)
	windowMetrics(r, win, float64(o.seconds), !r.out.Diverged)
	if post != nil {
		statusLayers(r, pre, post, win.Completed)
	}

	if o.trace {
		if err := spans.write(filepath.Join(o.work, "spans.jsonl")); err != nil {
			return err
		}
		if fo != nil {
			fo.checkpointLayers(r)
		}
		c.close()
		// One group and no gateway: the sharding and facade layers are
		// not on this workload's path.
		r.set("shard.imbalance", "ratio", 1)
		r.set("kvapi.facade_p50_ms", "ms", 0)
		r.set("kvapi.noseq_retries", "count", 0)
		st := newFig1Stream(w.body, o.seed)
		calls := make([]replica.Call, 4096)
		for i := range calls {
			calls[i] = st.next()
		}
		if fo == nil {
			r.set("recovery.replayed_tail", "count", 0)
			if err := recoveryLayers(r, workload.Fig1Source(w.body), calls); err != nil {
				return err
			}
		}
		return microLayers(r, calls, o.seed)
	}
	if len(w.ladder) > 0 && !r.out.Diverged && post != nil {
		ceiling(r, gen, w, maxCompleted(post))
	}
	return nil
}

// warmupStalled reports a run whose groups never reached one completed
// count after the warm-up. The steady state was not reached, so no
// window is measured; the run is invalid and counts the warm-up's
// requests.
func warmupStalled(r *report, warm outcome, err error) {
	r.fail("steady-state gate: warm-up output check: %v", err)
	r.out = warm
}

// window runs the measured window. A traced run splits it into an
// untraced and a traced half on the same boot; the difference between
// the halves is the tracing overhead.
func window(r *report, gen *wireGen, rate float64, o opts, spans *spanLog) *phaseResult {
	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		return gen.phase(rate, d, nil, settleTimeout)
	}
	s0 := selfCPUTicks()
	plain := gen.phase(rate, d/2, nil, settleTimeout)
	s1 := selfCPUTicks()
	gen.spans = spans
	traced := gen.phase(rate, d-d/2, nil, settleTimeout)
	gen.spans = nil
	s2 := selfCPUTicks()
	traceOverhead(r, plain.Intent, traced.Intent,
		cpuMsPerKreq(s0, s1, plain.Completed), cpuMsPerKreq(s1, s2, traced.Completed))
	return mergePhases(plain, traced)
}

// mergePhases concatenates two consecutive phases.
func mergePhases(a, b *phaseResult) *phaseResult {
	m := *a
	m.outcome = a.outcome.plus(b.outcome)
	m.Completed += b.Completed
	m.Intent = append(append([]float64(nil), a.Intent...), b.Intent...)
	m.Service = append(append([]float64(nil), a.Service...), b.Service...)
	m.Late = append(append([]float64(nil), a.Late...), b.Late...)
	m.Timeline = append(append([]completion(nil), a.Timeline...), b.Timeline...)
	m.SendNs += b.SendNs
	return &m
}

// windowMetrics sets the end-to-end metrics every window reports.
func windowMetrics(r *report, win *phaseResult, seconds float64, same bool) {
	latencyMetrics(r, win.Intent)
	r.set("achieved_rps", "1/s", float64(win.Completed)/seconds)
	r.set("failed_frac", "ratio", r.out.failedFrac())
	div := 0.0
	if !same {
		div = 1
		r.note("DIVERGED: members of a group disagree on completed count or hash after the window")
	}
	r.set("diverged", "bool", div)
	late, _ := percentile(sortedCopy(win.Late), 99)
	r.set("server.gen_late_p99_ms", "ms", late)
	if late > genLateBoundMs {
		r.fail("generator lateness p99 %.2f ms exceeds %.0f ms", late, genLateBoundMs)
	}
}

// ceiling walks the offered rate up w's ladder and bisects between the
// last passing and first failing step to ceilingResPct resolution.
// Every step's outputs are checked. A step after which the members
// disagree on the hash at one completed count (diverged), or never reach
// one count (unconverged), fails and ends the search: the cluster no
// longer has one state to measure.
func ceiling(r *report, gen *wireGen, w groupWorkload, base int) {
	lo, hi := w.rate, 0.0
	steps := 0
	stopAt, stopWhy := 0.0, ""
	try := func(rate float64) bool {
		steps++
		ph := gen.phase(rate, ceilingStep, nil, settleTimeout)
		post, same, err := converge(gen, base+ph.Completed)
		if post != nil {
			base = maxCompleted(post)
		}
		s := sortedCopy(ph.Intent)
		p99, _ := percentile(s, 99)
		achieved := float64(ph.Completed) / ceilingStep.Seconds()
		ok := err == nil && same && ph.failed() == 0 && p99 <= w.limitMs && achieved >= 0.95*rate
		verdict := "pass"
		switch {
		case err != nil:
			verdict, stopAt, stopWhy = "UNCONVERGED", rate, "members did not reach one completed count"
		case !same:
			verdict, stopAt, stopWhy = "DIVERGED", rate, "replica hashes diverged"
			r.set("ceiling_diverged_at_rps", "1/s", rate)
		case !ok:
			verdict = "fail"
		}
		r.note("ceiling step %.0f req/s: achieved %.0f p99 %.1f ms failed %d hashes-identical %v -> %s",
			rate, achieved, p99, ph.failed(), same, verdict)
		if stopAt == rate {
			r.note("ceiling step %.0f req/s check:%s", rate, describe(post))
		}
		return ok
	}
	inBudget := func() bool {
		if time.Since(started) < searchBudget {
			return true
		}
		stopAt, stopWhy = -1, "the run's time budget was spent"
		return false
	}
	for _, rate := range w.ladder {
		if !inBudget() {
			break
		}
		if try(rate) {
			lo = rate
			continue
		}
		hi = rate
		break
	}
	for hi > 0 && stopAt == 0 && (hi-lo)/lo*100 > ceilingResPct && inBudget() {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	r.set("ceiling_rps", "1/s", lo)
	r.set("ceiling_steps", "count", float64(steps))
	switch {
	case stopAt > 0:
		r.note("ceiling search stopped: %s at %.0f req/s (resolution %.0f%%)", stopWhy, stopAt, (stopAt-lo)/lo*100)
	case stopAt < 0:
		r.note("ceiling search stopped: %s", stopWhy)
	case hi == 0:
		r.note("ceiling above %.0f req/s: every step passed", w.ladder[len(w.ladder)-1])
	}
}
