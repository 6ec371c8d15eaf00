package server

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/lang"
)

// errHang makes the fake target never answer a request (until the test
// ends).
var errHang = errors.New("hang")

// fakeTarget is an in-memory Target: no sockets, so the engine's
// properties are checked under -short. Requests route by key modulo the
// group count; answer decides each request's fate by submission index.
type fakeTarget struct {
	groups  int
	latency time.Duration // service latency of every answer
	// stallAt/stall make the stallAt-th Submit (1-based) block for stall
	// — a slow sender, behind which arrivals pile up.
	stallAt int
	stall   time.Duration
	answer  func(n int) error
	diverge int // the Settle call (1-based) that reports divergence
	release chan struct{}

	mu       sync.Mutex
	n        int
	submits  []fakeSubmit
	settles  int
	misroute bool
}

type fakeSubmit struct{ group, slot, n int }

func newFake(t *testing.T, groups int) *fakeTarget {
	f := &fakeTarget{groups: groups, release: make(chan struct{})}
	t.Cleanup(func() { close(f.release) })
	return f
}

func (f *fakeTarget) Groups() int { return f.groups }

func (f *fakeTarget) Route(key uint64) int { return int(key % uint64(f.groups)) }

func (f *fakeTarget) Submit(group, slot int, reqs []Request) []Pending {
	f.mu.Lock()
	f.submits = append(f.submits, fakeSubmit{group, slot, len(reqs)})
	stall := len(f.submits) == f.stallAt
	out := make([]Pending, len(reqs))
	for i, r := range reqs {
		if f.Route(r.Key) != group {
			f.misroute = true
		}
		var err error
		if f.answer != nil {
			err = f.answer(f.n)
		}
		f.n++
		out[i] = fakePending{f, err}
	}
	f.mu.Unlock()
	if stall {
		time.Sleep(f.stall)
	}
	return out
}

func (f *fakeTarget) Settle(answered []int, by time.Time) ([]ShardSummary, error) {
	f.mu.Lock()
	f.settles++
	diverged := f.settles == f.diverge
	f.mu.Unlock()
	sums := make([]ShardSummary, f.groups)
	for g := range sums {
		sums[g] = ShardSummary{Shard: g, Converged: !diverged}
	}
	return sums, nil
}

type fakePending struct {
	f   *fakeTarget
	err error
}

func (p fakePending) Wait() (lang.Value, time.Duration, error) {
	if p.err == errHang {
		<-p.f.release
		return nil, 0, errHang
	}
	time.Sleep(p.f.latency)
	return nil, p.f.latency, p.err
}

func (f *fakeTarget) log() []fakeSubmit {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakeSubmit(nil), f.submits...)
}

func TestEngineClosedLoopCount(t *testing.T) {
	f := newFake(t, 2)
	res, err := RunLoad(LoadOptions{Target: f, Clients: 3, RequestsPerClient: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 15 || res.Sent != 15 || res.Measured != 15 || res.Service.N() != 15 {
		t.Fatalf("requests=%d sent=%d measured=%d service=%d, want 15 each",
			res.Requests, res.Sent, res.Measured, res.Service.N())
	}
	if res.Timeouts != 0 || res.Errors != 0 || !res.Converged {
		t.Fatalf("timeouts=%d errors=%d converged=%v", res.Timeouts, res.Errors, res.Converged)
	}
	if got := res.PerShard[0].Routed + res.PerShard[1].Routed; got != 15 {
		t.Fatalf("routed %d, want 15", got)
	}
	perSlot := map[int]int{}
	for _, s := range f.log() {
		perSlot[s.slot] += s.n
	}
	for slot := 0; slot < 3; slot++ {
		if perSlot[slot] != 5 {
			t.Fatalf("slot %d issued %d requests, want 5: %v", slot, perSlot[slot], perSlot)
		}
	}
}

func TestEnginePipelinedOneBatchPerClient(t *testing.T) {
	f := newFake(t, 1)
	res, err := RunLoad(LoadOptions{Target: f, Clients: 3, RequestsPerClient: 4, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	subs := f.log()
	if len(subs) != 3 {
		t.Fatalf("%d submits, want one batch per client: %v", len(subs), subs)
	}
	seen := map[int]bool{}
	for _, s := range subs {
		if s.n != 4 || seen[s.slot] {
			t.Fatalf("batches %v, want 4 requests from each of 3 distinct slots", subs)
		}
		seen[s.slot] = true
	}
	if res.Requests != 12 {
		t.Fatalf("requests=%d, want 12", res.Requests)
	}
}

// TestEngineIntentCoversService: a stalled sender delays the arrivals
// queued behind it; their intent latency (from the scheduled arrival)
// must show the stall that their service latency (from the send) hides.
func TestEngineIntentCoversService(t *testing.T) {
	f := newFake(t, 1)
	f.latency = time.Millisecond
	f.stallAt, f.stall = 10, 20*time.Millisecond
	res, err := RunLoad(LoadOptions{Target: f, Rate: 2000, Duration: 200 * time.Millisecond, Warmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if in, sv := res.Intent.Percentile(p), res.Service.Percentile(p); in < sv {
			t.Fatalf("p%v intent %v below service %v", p, in, sv)
		}
	}
	if res.Intent.Max() < f.stall || res.Service.Max() >= f.stall {
		t.Fatalf("intent max %v, service max %v: the %v stall must show in intent only",
			res.Intent.Max(), res.Service.Max(), f.stall)
	}
}

func TestEngineMeasuresOnlyWindowIntents(t *testing.T) {
	f := newFake(t, 1)
	res, err := RunLoad(LoadOptions{Target: f, Rate: 1000,
		Warmup: 100 * time.Millisecond, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed 1ms schedule: 100 warm-up intents, then 200 in the window.
	if res.Sent != 300 || res.Measured != 200 || res.Intent.N() != 200 {
		t.Fatalf("sent=%d measured=%d intent=%d, want 300/200/200", res.Sent, res.Measured, res.Intent.N())
	}
	if res.Achieved != 1000 {
		t.Fatalf("achieved %v, want 1000", res.Achieved)
	}
}

func TestEngineShedsAtMaxInFlight(t *testing.T) {
	f := newFake(t, 1)
	f.latency = time.Second
	res, err := RunLoad(LoadOptions{Target: f, Rate: 1000, Duration: 100 * time.Millisecond,
		Warmup: -1, MaxInFlight: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is answered within the schedule, so the cap admits the
	// first 10 arrivals and sheds every later one.
	if res.Sent != 10 || res.Shed != 90 || res.Requests != 10 {
		t.Fatalf("sent=%d shed=%d requests=%d, want 10/90/10", res.Sent, res.Shed, res.Requests)
	}
}

func TestEngineDrainDeadlineTimeouts(t *testing.T) {
	t.Run("open", func(t *testing.T) {
		f := newFake(t, 1)
		f.answer = func(n int) error {
			if n%3 == 0 {
				return errHang
			}
			return nil
		}
		res, err := RunLoad(LoadOptions{Target: f, Rate: 500, Duration: 60 * time.Millisecond,
			Warmup: -1, SettleTimeout: 200 * time.Millisecond})
		if err == nil || !strings.Contains(err.Error(), "unanswered") {
			t.Fatalf("err %v, want an unanswered-requests error", err)
		}
		if res.Sent != 30 || res.Timeouts != 10 || res.Requests != 20 || res.Converged {
			t.Fatalf("sent=%d timeouts=%d requests=%d converged=%v, want 30/10/20/false",
				res.Sent, res.Timeouts, res.Requests, res.Converged)
		}
	})
	t.Run("closed", func(t *testing.T) {
		f := newFake(t, 1)
		f.answer = func(n int) error {
			if n == 0 {
				return errHang
			}
			return nil
		}
		res, err := RunLoad(LoadOptions{Target: f, Clients: 2, RequestsPerClient: 3,
			Timeout: 200 * time.Millisecond})
		if err == nil {
			t.Fatal("a stalled client must fail the run")
		}
		// One client hangs on its first request and never sends the
		// other two; both count as unanswered.
		if res.Requests != 3 || res.Timeouts != 3 {
			t.Fatalf("requests=%d timeouts=%d, want 3/3", res.Requests, res.Timeouts)
		}
	})
}

func TestEngineNoSequencer(t *testing.T) {
	t.Run("closed loop retries", func(t *testing.T) {
		f := newFake(t, 1)
		f.answer = func(n int) error {
			if n < 2 {
				return gcs.ErrNoSequencer
			}
			return nil
		}
		res, err := RunLoad(LoadOptions{Target: f, Clients: 1, RequestsPerClient: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries != 2 || res.NoSeqErr != 0 || res.Errors != 0 || res.Requests != 2 || res.Sent != 2 {
			t.Fatalf("retries=%d noseq=%d errors=%d requests=%d sent=%d, want 2/0/0/2/2",
				res.Retries, res.NoSeqErr, res.Errors, res.Requests, res.Sent)
		}
	})
	t.Run("open loop counts apart", func(t *testing.T) {
		f := newFake(t, 1)
		f.answer = func(n int) error {
			switch n % 4 {
			case 1:
				// As it arrives through a reply handle: text only.
				return errors.New(gcs.ErrNoSequencer.Error())
			case 2:
				return errors.New("boom")
			}
			return nil
		}
		res, err := RunLoad(LoadOptions{Target: f, Rate: 400, Duration: 100 * time.Millisecond, Warmup: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != 40 || res.NoSeqErr != 10 || res.Errors != 10 || res.Measured != 20 || res.Retries != 0 {
			t.Fatalf("sent=%d noseq=%d errors=%d measured=%d retries=%d, want 40/10/10/20/0",
				res.Sent, res.NoSeqErr, res.Errors, res.Measured, res.Retries)
		}
		if n := len(f.log()); n != 40 {
			t.Fatalf("%d submits, want 40 (no open-loop retries)", n)
		}
	})
}

// TestEnginePoolRotation: the open loop rotates the client pool per
// arrival without batching, and once per (wakeup, group) with it. A
// stalled submit makes later wakeups carry bursts across both groups.
func TestEnginePoolRotation(t *testing.T) {
	for _, batch := range []bool{false, true} {
		f := newFake(t, 2)
		f.stallAt, f.stall = 2, 10*time.Millisecond
		res, err := RunLoad(LoadOptions{Target: f, Rate: 2000, Duration: 50 * time.Millisecond,
			Warmup: -1, Clients: 3, BatchSubmit: batch})
		if err != nil {
			t.Fatal(err)
		}
		subs := f.log()
		total, batched := 0, false
		for i, s := range subs {
			if s.slot != i%3 {
				t.Fatalf("batch=%v: submit %d used slot %d, want %d: %v", batch, i, s.slot, i%3, subs)
			}
			if s.n > 1 && !batch {
				t.Fatalf("batch=%v: submit %d carried %d requests", batch, i, s.n)
			}
			batched = batched || s.n > 1
			total += s.n
		}
		if batch && !batched {
			t.Fatalf("no burst was coalesced: %v", subs)
		}
		if f.misroute || total != res.Sent || res.Sent != 100 {
			t.Fatalf("batch=%v: misroute=%v submitted=%d sent=%d, want 100", batch, f.misroute, total, res.Sent)
		}
	}
}

func TestFindCeilingStopsAtDivergedStep(t *testing.T) {
	f := newFake(t, 1)
	f.diverge = 2
	res, err := FindCeiling(LoadOptions{Target: f, Duration: 100 * time.Millisecond, Warmup: -1}, 100, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || !res.Steps[0].Sustained || res.Steps[1].Sustained {
		t.Fatalf("steps %+v: want a sustained step, then the diverged one ending the search", res.Steps)
	}
	if res.Steps[1].Achieved < 0.9*res.Steps[1].Offered {
		t.Fatalf("step 2 fell short on rate (%+v); only divergence should fail it", res.Steps[1])
	}
	if res.Ceiling != res.Steps[0].Achieved {
		t.Fatalf("ceiling %v, want the first step's %v", res.Ceiling, res.Steps[0].Achieved)
	}
}
