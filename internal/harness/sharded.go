package harness

import (
	"fmt"
	"net"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"detmt/internal/server"
)

// ShardedOptions sizes experiment E16, the sharded scale-out ladder.
type ShardedOptions struct {
	// Shards is the ladder of shard counts; each rung is a fresh
	// single-process multi-tenant cluster (default 1, 2, 4).
	Shards []int
	// Duration is each rate step's measured window (default 1.5s).
	Duration time.Duration
	// Warmup precedes each measured window (default 300ms).
	Warmup time.Duration
	// StartRatePerShard seeds the geometric rate search at
	// rate = StartRatePerShard * shards (default 1000 — the same
	// starting point per sequencer group as the single-group search).
	StartRatePerShard float64
}

// DefaultShardedOptions returns the experiment defaults.
func DefaultShardedOptions() ShardedOptions {
	return ShardedOptions{
		Shards:            []int{1, 2, 4},
		Duration:          1500 * time.Millisecond,
		Warmup:            300 * time.Millisecond,
		StartRatePerShard: 1000,
	}
}

// shardedCluster spawns ONE detmt-server process hosting `shards`
// single-replica groups (the cheap many-shard deployment the
// multi-tenant server exists for) and returns the base tenant address
// plus a closer. Shard k listens on base port + k, so the process needs
// a contiguous port range — reserve one and retry on collision.
func shardedCluster(shards int, extra ...string) (string, func(), error) {
	bin, err := serverBinary()
	if err != nil {
		return "", nil, err
	}
	wl := openLoopWorkload()
	for attempt := 0; attempt < 20; attempt++ {
		base, ok := reserveRange(shards)
		if !ok {
			continue
		}
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(base))
		args := []string{
			"-id", "1",
			"-listen", addr,
			"-shards", strconv.Itoa(shards),
			"-scheduler", "MAT",
			"-iterations", strconv.Itoa(wl.Iterations),
			"-mutexes", strconv.Itoa(wl.Mutexes),
		}
		args = append(args, extra...)
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			return "", nil, err
		}
		closer := func() {
			cmd.Process.Kill()
			cmd.Wait()
		}
		// Wait until every tenant accepts connections. A bind collision
		// (someone grabbed a port in our range first) kills the process;
		// distinguish it from slow startup by watching for exit.
		deadline := time.Now().Add(10 * time.Second)
		up := true
		for k := 0; k < shards && up; k++ {
			tenant := net.JoinHostPort("127.0.0.1", strconv.Itoa(base+k))
			for {
				c, err := net.DialTimeout("tcp", tenant, 250*time.Millisecond)
				if err == nil {
					c.Close()
					break
				}
				if cmd.ProcessState != nil || time.Now().After(deadline) {
					up = false
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
		if up {
			return addr, closer, nil
		}
		closer()
	}
	return "", nil, fmt.Errorf("could not reserve %d contiguous ports", shards)
}

// reserveRange picks a kernel-assigned base port and verifies the next
// n-1 ports are also bindable right now. The listeners are closed
// before the server binds them — the same tolerable race as
// openLoopCluster's single-port reservation.
func reserveRange(n int) (int, bool) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, false
	}
	base := ln.Addr().(*net.TCPAddr).Port
	lns := []net.Listener{ln}
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	for k := 1; k < n; k++ {
		l, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(base+k)))
		if err != nil {
			return 0, false
		}
		lns = append(lns, l)
	}
	return base, true
}

// Sharded is experiment E16: the sharded scale-out ladder. Each rung
// spawns one multi-tenant detmt-server process hosting N single-replica
// groups behind the consistent-hash ring, then walks the AGGREGATE
// offered rate geometrically until the deployment stops sustaining it
// at the same p99 SLO as the single-group ceiling search. The headline
// metric, aggregate_ceiling_rps, is the largest rung's ceiling — the
// acceptance bar is >= 3x the committed single-group ceiling_rps.
//
// The rungs use ONE replica per shard (the cheap soak configuration);
// cross-replica ConsistencyHash identity per shard is therefore proven
// separately by the multi-member sharded e2e tests, not here.
//
// Not part of All(): real processes, real sockets, real seconds.
func Sharded(o ShardedOptions) Result {
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2, 4}
	}
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.StartRatePerShard <= 0 {
		o.StartRatePerShard = 1000
	}
	var b strings.Builder
	metricsOut := map[string]float64{}
	b.WriteString("Aggregate ceiling vs shard count (one process, one replica per\nshard, adaptive tick + group commit, SLO p99 <= 100ms):\n\n")
	var last float64
	for _, n := range o.Shards {
		addr, closeAll, err := shardedCluster(n, "-adaptive-tick", "-ring-seed", "42")
		if err != nil {
			fmt.Fprintf(&b, "%d shards FAILED: %v\n", n, err)
			continue
		}
		ring, err := server.FetchRing([]string{addr}, 10*time.Second, nil, nil)
		if err != nil {
			closeAll()
			fmt.Fprintf(&b, "%d shards: ring fetch FAILED: %v\n", n, err)
			continue
		}
		hash, _ := ring.Hash()
		fmt.Fprintf(&b, "-- %d shard(s), ring %016x --\n", n, hash)
		fmt.Fprintf(&b, "%10s %12s %10s %10s %10s\n", "offered", "achieved", "p50-ms", "p99-ms", "sustained")
		res, err := server.FindCeiling(server.LoadOptions{
			Ring:          &ring,
			Duration:      o.Duration,
			Warmup:        o.Warmup,
			BatchSubmit:   true,
			SLO:           100 * time.Millisecond,
			Seed:          7,
			Workload:      openLoopWorkload(),
			SettleTimeout: 60 * time.Second,
		}, o.StartRatePerShard*float64(n), 1.25, 8)
		closeAll()
		if res == nil {
			fmt.Fprintf(&b, "FAILED: %v\n", err)
			continue
		}
		for _, st := range res.Steps {
			fmt.Fprintf(&b, "%10.0f %12.0f %10.2f %10.2f %10v\n",
				st.Offered, st.Achieved,
				float64(st.P50)/float64(time.Millisecond),
				float64(st.P99)/float64(time.Millisecond), st.Sustained)
		}
		fmt.Fprintf(&b, "sustained aggregate ceiling: %.0f req/s (imbalance %.3f)\n\n",
			res.Ceiling, res.Imbalance)
		if res.Ceiling > 0 {
			metricsOut[fmt.Sprintf("aggregate_ceiling_rps_%d", n)] = res.Ceiling
			metricsOut[fmt.Sprintf("ceiling_imbalance_%d", n)] = res.Imbalance
			last = res.Ceiling
		}
	}
	if last > 0 {
		metricsOut["aggregate_ceiling_rps"] = last
	}
	b.WriteString("Shards are independent sequencer groups: no cross-shard ordering,\nso the aggregate ceiling grows with the shard count until the box\nitself (cores, loopback) saturates. One replica per shard keeps the\nsoak cheap; per-shard cross-replica hash identity is covered by the\nmulti-member sharded e2e tests.\n")
	return Result{
		ID:      "sharded_ceiling",
		Title:   "E16: sharded aggregate throughput ceiling (multi-tenant detmt-server process)",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}
