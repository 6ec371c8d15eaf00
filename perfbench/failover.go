package main

import (
	"fmt"
	"sync"
	"time"

	"detmt/internal/ids"
)

const (
	killShare     = 0.3 // the kill's offset into the window, as a share of it
	restartAfter  = time.Second
	catchupWithin = 30 * time.Second
)

// failoverRun SIGKILLs the group's sequencer a fixed share into the
// window while the arrival schedule keeps running, restarts it with
// -recover after restartAfter, and times the outage and the catch-up.
type failoverRun struct {
	c        *cluster
	gen      *wireGen
	victim   ids.ReplicaID
	stopPoll func()
	done     chan struct{}

	// Written by run before done is closed.
	killAt, restartAt, caughtAt time.Duration // generator clock
	tail                        int           // victim's replayed_tail
	err                         error
}

func startFailover(c *cluster, gen *wireGen, victim ids.ReplicaID, window time.Duration) *failoverRun {
	f := &failoverRun{c: c, gen: gen, victim: victim, done: make(chan struct{})}
	f.stopPoll = gen.pollViews()
	go f.run(time.Duration(float64(window) * killShare))
	return f
}

func (f *failoverRun) run(after time.Duration) {
	defer close(f.done)
	time.Sleep(after)
	f.killAt = f.gen.clock.Now()
	f.c.kill(f.victim)
	logf("failover: killed sequencer R%d", f.victim)
	time.Sleep(restartAfter)
	f.restartAt = f.gen.clock.Now()
	if f.err = f.c.start(f.victim, "-recover"); f.err != nil {
		return
	}
	deadline := time.Now().Add(catchupWithin)
	var last *memberStatus
	for time.Now().Before(deadline) {
		st, err := statusOf(f.gen.tr, f.victim, time.Second)
		if err == nil {
			last = st
			if st.Recovery == "caught_up" {
				f.caughtAt = f.gen.clock.Now()
				f.tail = st.ReplayedTail
				logf("failover: R%d caught up, replayed tail %d", f.victim, st.ReplayedTail)
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.err = fmt.Errorf("restarted R%d did not reach recovery=caught_up within %v", f.victim, catchupWithin)
	if last != nil {
		f.err = fmt.Errorf("%v (recovery=%s completed=%d diagnostic=%q)", f.err, last.Recovery, last.Completed, last.Diagnostic)
	}
}

// finish waits for the episode and reports its end-to-end metrics
// against the window's completion timeline.
func (f *failoverRun) finish(r *report, win *phaseResult) {
	<-f.done
	f.stopPoll()
	if u, ok := unavailMs(f.killAt, win.Timeline); ok {
		r.set("unavail_ms", "ms", u)
	} else {
		r.fail("failover: no request due after the kill completed")
	}
	if f.err != nil {
		r.fail("failover: %v", f.err)
		return
	}
	r.set("catchup_s", "s", (f.caughtAt - f.restartAt).Seconds())
	r.set("recovery.replayed_tail", "count", float64(f.tail))
}

// checkpointLayers fetches the latest checkpoint from a surviving member
// over the public wire.TCP.FetchCheckpoint call and times its decoding.
func (f *failoverRun) checkpointLayers(r *report) {
	donor := f.c.members()[0]
	if donor == f.victim {
		donor = f.c.members()[1]
	}
	data, seq, ok, err := f.gen.tr.FetchCheckpoint(donor, 10*time.Second)
	switch {
	case err != nil:
		r.fail("recovery: checkpoint fetch from R%d: %v", donor, err)
	case !ok:
		r.note("recovery: R%d holds no checkpoint", donor)
		r.set("recovery.checkpoint_kb", "KiB", 0)
		r.set("recovery.decode_ms", "ms", 0)
	default:
		r.note("recovery: R%d's checkpoint covers slot %d", donor, seq)
		decodeLayer(r, data)
	}
}

// completion is one answered request: when it was due and when its
// reply arrived, both on the generator's clock.
type completion struct{ Due, At time.Duration }

// unavailMs is the time from t to the first completion of a request due
// at or after t; ok is false when no such request completed.
func unavailMs(t time.Duration, timeline []completion) (float64, bool) {
	var first time.Duration
	ok := false
	for _, c := range timeline {
		if c.Due >= t && (!ok || c.At < first) {
			first, ok = c.At, true
		}
	}
	return ms(first - t), ok
}

// pollViews installs any newer view a member reports into the
// generator's client-only group, every 100 ms until the returned stop
// is called: a process hosting no replica receives no heartbeats, so it
// cannot observe a takeover on its own.
func (w *wireGen) pollViews() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range w.members {
		wg.Add(1)
		go func(id ids.ReplicaID) {
			defer wg.Done()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-quit:
					return
				case <-t.C:
				}
				st, err := statusOf(w.tr, id, time.Second)
				if err != nil {
					continue
				}
				if v, _ := w.g.CurrentView(); st.View > v {
					logf("failover: adopting view %d (sequencer R%d) from R%d", st.View, st.Sequencer, id)
					w.g.AdoptView(st.View, st.Sequencer)
				}
			}
		}(id)
	}
	return func() {
		close(quit)
		wg.Wait()
	}
}
