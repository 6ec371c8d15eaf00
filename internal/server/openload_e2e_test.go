package server

import (
	"testing"
	"time"

	"detmt/internal/replica"
)

// runOpenLoad drives one open-loop run against a fresh cluster and
// asserts the shared invariants: no request errors, full convergence,
// and a non-empty measured window.
func runOpenLoad(t *testing.T, o LoadOptions) *LoadResult {
	t.Helper()
	_, addrs := startCluster(t, 3, replica.KindMAT)
	o.Servers = addrs
	o.Workload = testWorkload()
	res, err := RunLoad(o)
	if err != nil {
		t.Fatalf("open-loop run: %v", err)
	}
	if res.Errors > 0 || res.NoSeqErr > 0 {
		t.Fatalf("request errors: %d other, %d no-sequencer", res.Errors, res.NoSeqErr)
	}
	if res.Timeouts > 0 {
		t.Fatalf("%d requests timed out", res.Timeouts)
	}
	if !res.Converged {
		t.Fatalf("cluster did not converge: %+v", res.Statuses)
	}
	if res.Measured == 0 {
		t.Fatal("measured window recorded no completions")
	}
	if res.Intent.N() != uint64(res.Measured) || res.Service.N() != uint64(res.Measured) {
		t.Fatalf("histogram counts %d/%d, want %d", res.Intent.N(), res.Service.N(), res.Measured)
	}
	if res.Intent.Percentile(50) < res.Service.Percentile(0) {
		t.Fatalf("intent latency %v below minimum service latency %v — CO correction lost",
			res.Intent.Percentile(50), res.Service.Percentile(0))
	}
	return res
}

// TestOpenLoadSmoke drives a modest open-loop rate through a cluster and
// checks rate accounting: offered ≈ achieved when far below the ceiling.
func TestOpenLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	res := runOpenLoad(t, LoadOptions{
		Rate:     150,
		Duration: 2 * time.Second,
		Warmup:   500 * time.Millisecond,
		Seed:     11,
	})
	if res.Achieved < 0.7*res.Offered {
		t.Fatalf("achieved %.0f req/s far below offered %.0f at a trivial rate", res.Achieved, res.Offered)
	}
	if res.Shed > 0 {
		t.Fatalf("%d arrivals shed at a trivial rate", res.Shed)
	}
}

// TestOpenLoadPoissonBatch drives Poisson arrivals with batched submits,
// so bursts cross the sequencer's saturation depth and ride the
// shrunken-tick, group-commit path. Determinism criterion: all replicas
// converge on one schedule hash.
func TestOpenLoadPoissonBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	runOpenLoad(t, LoadOptions{
		Rate:        300,
		Duration:    2 * time.Second,
		Warmup:      500 * time.Millisecond,
		Poisson:     true,
		BatchSubmit: true,
		Seed:        13,
	})
}

// TestPipelinedBurstScheduleReproducible runs the same single-client
// pipelined burst against two fresh clusters and asserts bit-identical
// consistency hashes. How the burst's forwards fall into sequencer
// ticks (and so share stamps and group-committed frames) depends on
// timing in each cluster; the schedule must not.
func TestPipelinedBurstScheduleReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	run := func() *LoadResult {
		_, addrs := startCluster(t, 3, replica.KindMAT)
		res, err := RunLoad(LoadOptions{
			Servers:           addrs,
			Clients:           1,
			RequestsPerClient: 8,
			Seed:              7,
			Workload:          testWorkload(),
			Pipelined:         true,
			Timeout:           90 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors > 0 || !res.Converged {
			t.Fatalf("errors=%d converged=%v", res.Errors, res.Converged)
		}
		return res
	}
	first, second := run(), run()
	if first.Hashes[0] != second.Hashes[0] {
		t.Fatalf("same burst, different schedules: first cluster hash %x, second %x",
			first.Hashes[0], second.Hashes[0])
	}
}
