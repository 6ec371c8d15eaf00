package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"time"

	"detmt/internal/workload"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 99.9); v != 999 || beyond != 1 {
		t.Fatalf("p99.9 of 1..1000 = %v with %d beyond, want 999 with 1", v, beyond)
	}
	if v, _ := percentile(xs, 50); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {1000, 99.9, false}, {10000, 99.9, true}, {9999, 99.9, false}, {0, 50, false},
	}
	for _, c := range cases {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestFailedFracAccounting(t *testing.T) {
	o := outcome{Attempted: 200, Shed: 1, Timeouts: 2, NoSeq: 3, Other: 4}
	if o.failed() != 10 || o.failedFrac() != 0.05 {
		t.Fatalf("failed %d frac %v, want 10 and 0.05", o.failed(), o.failedFrac())
	}
	o.Diverged = true
	if o.failed() != 200 || o.failedFrac() != 1 {
		t.Fatalf("diverged window: failed %d frac %v, want every request", o.failed(), o.failedFrac())
	}
	if (outcome{}).failedFrac() != 0 {
		t.Fatal("empty window must report 0")
	}
	if f := (outcome{Attempted: 3, Shed: 5}).failed(); f != 3 {
		t.Fatalf("failures capped at attempted: got %d", f)
	}
}

func TestCPUPerKreqFromProc(t *testing.T) {
	// comm with spaces and parentheses; utime=150, stime=50.
	stat := "4242 (detmt (srv) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 9 0 100 200000 300"
	ticks, ok := parseStatTicks(stat)
	if !ok || ticks != 200 {
		t.Fatalf("parseStatTicks = %d, %v; want 200", ticks, ok)
	}
	// 200 ticks at 100 Hz = 2000 ms over 4000 completions.
	if got := cpuMsPerKreq(0, ticks, 4000); got != 500 {
		t.Fatalf("cpuMsPerKreq = %v, want 500", got)
	}
	if cpuMsPerKreq(0, 10, 0) != 0 {
		t.Fatal("no completions must report 0")
	}
	if kb, ok := parseRSSKB("Name:\tx\nVmRSS:\t  51200 kB\nThreads:\t9\n"); !ok || kb != 51200 {
		t.Fatalf("parseRSSKB = %d, %v", kb, ok)
	}
}

// unavail_ms counts from the kill to the first completion of a request
// due after it; requests due before the kill that complete late, and
// replies arriving out of order, must not shorten it.
func TestUnavailFromCompletionTimeline(t *testing.T) {
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	kill := msd(1000)
	tl := []completion{
		{Due: msd(900), At: msd(905)},
		{Due: msd(990), At: msd(1100)}, // due before the kill, answered after it
		{Due: msd(1010), At: msd(1420)},
		{Due: msd(1000), At: msd(1380)}, // due exactly at the kill
		{Due: msd(1200), At: msd(1390)},
	}
	if got, ok := unavailMs(kill, tl); !ok || got != 380 {
		t.Fatalf("unavailMs = %v, %v; want 380", got, ok)
	}
	if _, ok := unavailMs(kill, tl[:2]); ok {
		t.Fatal("no request due after the kill completed: want ok=false")
	}
}

func TestImbalance(t *testing.T) {
	if got := imbalance([]float64{300, 100}); got != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5", got)
	}
	if got := imbalance([]float64{7}); got != 1 {
		t.Fatalf("one shard is balanced, got %v", got)
	}
	if got := imbalance(nil); got != 0 || math.IsNaN(got) {
		t.Fatalf("no shards = %v", got)
	}
}

// The request streams depend on the seed only: two generators with the
// same seed produce byte-identical streams, another seed does not.
func TestSeedYieldsIdenticalStreams(t *testing.T) {
	fig1 := func(seed uint64) [32]byte {
		s := newFig1Stream(workload.DefaultFig1(), seed)
		return streamDigest(func() string {
			c := s.next()
			return fmt.Sprintf("%s %v", c.Method, c.Args)
		}, 5000)
	}
	kv := func(seed uint64) [32]byte {
		s := newKVStream(seed)
		return streamDigest(func() string { return s.next().String() }, 5000)
	}
	for name, digest := range map[string]func(uint64) [32]byte{"fig1": fig1, "kv": kv} {
		if digest(7) != digest(7) {
			t.Errorf("%s: same seed gave different streams", name)
		}
		if digest(7) == digest(8) {
			t.Errorf("%s: different seeds gave the same stream", name)
		}
	}
}

// seq-flat's stream makes no nested calls but keeps the computations;
// seq-hot's makes both.
func TestFlatBodyHasNoNestedCalls(t *testing.T) {
	count := func(cfg workload.Fig1Config) (nested, compute int) {
		s := newFig1Stream(cfg, 7)
		for i := 0; i < 5000; i++ {
			for _, a := range s.next().Args {
				_, n, c := workload.DecodeArg(cfg, a.(int64))
				if n {
					nested++
				}
				if c {
					compute++
				}
			}
		}
		return nested, compute
	}
	if n, c := count(flatBody()); n != 0 || c == 0 {
		t.Fatalf("seq-flat: %d nested, %d compute decisions; want 0 and some", n, c)
	}
	if n, _ := count(e15Body()); n == 0 {
		t.Fatal("seq-hot: no nested decisions")
	}
}

// streamDigest hashes the first n calls of a stream.
func streamDigest(next func() string, n int) [32]byte {
	h := sha256.New()
	for i := 0; i < n; i++ {
		h.Write([]byte(next()))
		h.Write([]byte{'\n'})
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// core.sched_wait_virt_ms replays a generated order on a virtual clock,
// so it must repeat exactly for a seed.
func TestSchedWaitRepeatsExactly(t *testing.T) {
	a, _, err := paperFig1Replay(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := paperFig1Replay(7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed 7: %.4f ms", a)
	if a != b || a <= 0 {
		t.Fatalf("sched wait %v then %v ms: want one positive value", a, b)
	}
}
