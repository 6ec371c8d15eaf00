package server

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/shard"
	"detmt/internal/wire"
)

// reserveBasePorts finds a base port P such that P..P+n-1 were all
// bindable a moment ago. MultiServer derives per-shard ports from the
// base (Listener overrides are unsupported — the symmetric layout needs
// derivable ports), so tests must reserve a contiguous range. The
// check-then-use gap is an accepted race: attempts retry.
func reserveBasePorts(t *testing.T, n int) int {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := ln.Addr().(*net.TCPAddr).Port
		ln.Close()
		held := []net.Listener{}
		ok := true
		for p := base; p < base+n; p++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			held = append(held, l)
		}
		for _, l := range held {
			l.Close()
		}
		if ok {
			return base
		}
	}
	t.Fatal("could not reserve a contiguous loopback port range")
	return 0
}

// controlQuery sends one control command to a server address over a
// throwaway transport and returns the raw reply.
func controlQuery(t *testing.T, addr, cmd string) []byte {
	t.Helper()
	tr, err := wire.NewTCP(wire.Options{
		Name:  "ctl-test",
		Epoch: nextLoadEpoch("", "ctl-test"),
		Peers: map[ids.ReplicaID]string{1: addr},
		Logf:  debugLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	b, err := tr.Control(1, []byte(cmd), 5*time.Second)
	if err != nil {
		t.Fatalf("control %q to %s: %v", cmd, addr, err)
	}
	return b
}

// TestShardedMultiSmoke boots a single-member 2-shard multi-tenant
// process with cross-shard calls on, drives a closed-loop sharded load
// through the ring, and checks the whole surface: routing counts,
// per-shard convergence, the "ring" and "shards" control queries, and
// exactly-once bookkeeping at both gateways.
func TestShardedMultiSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket sharded test")
	}
	const shards = 2
	base := reserveBasePorts(t, 2*shards) // shard ports + gateway ports
	m, err := NewMulti(MultiOptions{
		Template: Options{
			ID:            1,
			Listen:        fmt.Sprintf("127.0.0.1:%d", base),
			Scheduler:     replica.KindMAT,
			Workload:      testWorkload(),
			NestedLatency: 2 * time.Millisecond,
			NestedTimeout: 15 * time.Second,
			Tick:          2 * time.Millisecond,
			Budget:        5 * time.Millisecond,
			Logf:          debugLogf,
		},
		Shards:   shards,
		RingSeed: 42,
		XShard:   true,
		EpochDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("starting multi-tenant server: %v", err)
	}
	defer m.Close()
	if m.Tenants() != shards {
		t.Fatalf("hosted %d tenants, want %d", m.Tenants(), shards)
	}

	// A router joins by fetching the ring from ANY tenant port and
	// verifying agreement across all of them.
	addrs := []string{m.Tenant(0).Addr(), m.Tenant(1).Addr()}
	fetched, err := FetchRing(addrs, 5*time.Second, nil, debugLogf)
	if err != nil {
		t.Fatalf("fetching ring: %v", err)
	}
	fh, err := fetched.Hash()
	if err != nil {
		t.Fatal(err)
	}
	mh, err := m.Ring().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if fh != mh {
		t.Fatalf("fetched ring hash %016x != server ring hash %016x", fh, mh)
	}

	res, err := RunLoad(LoadOptions{
		Ring:              &fetched,
		Clients:           2,
		RequestsPerClient: 6,
		Seed:              17,
		Workload:          testWorkload(),
		EpochDir:          t.TempDir(),
		Timeout:           120 * time.Second,
		Logf:              debugLogf,
	})
	if err != nil {
		t.Fatalf("sharded load: %v", err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d request errors in sharded smoke", res.Errors)
	}
	if !res.Converged {
		t.Fatalf("sharded run did not converge: %+v", res.PerShard)
	}
	var routed uint64
	for _, sum := range res.PerShard {
		routed += sum.Routed
		if sum.Routed == 0 {
			t.Fatalf("shard %d received no requests (12 keys over 2 shards)", sum.Shard)
		}
		want := "g" + fmt.Sprint(sum.Shard)
		for _, st := range sum.Statuses {
			if st.Shard != want {
				t.Fatalf("shard %d status carries tag %q, want %q", sum.Shard, st.Shard, want)
			}
		}
	}
	if routed != uint64(res.Requests) {
		t.Fatalf("routed %d != issued %d", routed, res.Requests)
	}
	if res.Imbalance < 1 {
		t.Fatalf("imbalance ratio %f < 1 (max/mean cannot be)", res.Imbalance)
	}

	// The "shards" control query answers one JSON document with every
	// tenant's status, on any tenant's port.
	var ms MultiStatus
	if err := json.Unmarshal(controlQuery(t, m.Tenant(1).Addr(), "shards"), &ms); err != nil {
		t.Fatalf("unmarshalling shards reply: %v", err)
	}
	if len(ms.Shards) != shards {
		t.Fatalf("shards reply has %d entries, want %d", len(ms.Shards), shards)
	}
	for k, st := range ms.Shards {
		if want := "g" + fmt.Sprint(k); st.Shard != want {
			t.Fatalf("shards[%d] tagged %q, want %q", k, st.Shard, want)
		}
	}

	// Cross-shard exactly-once bookkeeping: each gateway applied each
	// distinct idempotency key once, and the keys are namespaced by the
	// CALLING shard (shard k dials the NEXT shard's gateway).
	for k := 0; k < shards; k++ {
		gw := m.Gateway(k)
		if gw == nil {
			t.Fatalf("lowest member does not host gateway %d", k)
		}
		be := gw.Backend()
		if applies, keys := be.Applies(), uint64(be.Stats()["cached_keys"].(int)); applies != keys {
			t.Fatalf("gateway %d applies %d != distinct keys %d", k, applies, keys)
		}
		caller := "shard:g" + fmt.Sprint((k+shards-1)%shards)
		for prefix := range be.AppliesByPrefix() {
			if prefix != caller {
				t.Fatalf("gateway %d saw keys from %q, want only %q", k, prefix, caller)
			}
		}
	}
}

// TestShardedClusterHashIdentity runs two member processes × two shards
// (four replicas in two sequencer groups) and asserts the acceptance
// criterion directly: within each shard, the replicas' ConsistencyHash
// is bit-identical across the two processes, and both processes serve
// byte-identical ring blobs.
func TestShardedClusterHashIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket sharded test")
	}
	const shards = 2
	base := reserveBasePorts(t, 2*shards)
	addr1 := fmt.Sprintf("127.0.0.1:%d", base)
	addr2 := fmt.Sprintf("127.0.0.1:%d", base+shards)
	mk := func(id ids.ReplicaID, listen string, peers map[ids.ReplicaID]string) *MultiServer {
		m, err := NewMulti(MultiOptions{
			Template: Options{
				ID:             id,
				Listen:         listen,
				Peers:          peers,
				Scheduler:      replica.KindMAT,
				Workload:       testWorkload(),
				NestedLatency:  2 * time.Millisecond,
				Tick:           2 * time.Millisecond,
				Budget:         5 * time.Millisecond,
				GossipInterval: 100 * time.Millisecond,
				Logf:           debugLogf,
			},
			Shards:   shards,
			RingSeed: 7,
		})
		if err != nil {
			t.Fatalf("starting member %d: %v", id, err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	m1 := mk(1, addr1, map[ids.ReplicaID]string{2: addr2})
	m2 := mk(2, addr2, map[ids.ReplicaID]string{1: addr1})

	// Both members derived the ring independently from the base
	// addresses alone; the blobs must agree byte for byte.
	if _, err := shard.VerifyAgreement(map[string][]byte{
		addr1: m1.RingBlob(),
		addr2: m2.RingBlob(),
	}); err != nil {
		t.Fatalf("members disagree on the ring: %v", err)
	}

	ring := m1.Ring()
	res, err := RunLoad(LoadOptions{
		Ring:              &ring,
		Clients:           2,
		RequestsPerClient: 5,
		Seed:              23,
		Workload:          testWorkload(),
		EpochDir:          t.TempDir(),
		Timeout:           120 * time.Second,
		Logf:              debugLogf,
	})
	if err != nil {
		t.Fatalf("sharded load: %v", err)
	}
	if !res.Converged {
		t.Fatalf("sharded cluster did not converge: %+v", res.PerShard)
	}
	for _, sum := range res.PerShard {
		if len(sum.Hashes) != 2 {
			t.Fatalf("shard %d settled %d replicas, want 2", sum.Shard, len(sum.Hashes))
		}
		if sum.Hashes[0] != sum.Hashes[1] {
			t.Fatalf("shard %d hash fork across processes: %v", sum.Shard, sum.Hashes)
		}
	}
	// Shards are INDEPENDENT orders: their hashes coinciding would be a
	// sign the groups spliced together despite the wire group tags.
	if res.PerShard[0].Routed != res.PerShard[1].Routed &&
		res.PerShard[0].Hashes[0] == res.PerShard[1].Hashes[0] {
		t.Fatalf("different request counts but identical hashes across shards: %+v", res.PerShard)
	}
}

// TestCrossShardPerformerKillExactlyOnce is the sharded version of
// performerKillMidCall: a 3-replica source shard (g0) makes nested
// calls through a shard gateway into a single-replica target shard
// (g1). The source shard's performer is killed while cross-shard calls
// are in flight; the promoted performer re-performs under the original
// "shard:g0:<req>:<call>" keys, the gateway's idempotency cache absorbs
// the replays, and the target shard sees each logical call exactly
// once.
func TestCrossShardPerformerKillExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket sharded test")
	}
	// Target shard g1: one replica, group-tagged.
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target, err := New(Options{
		ID:            1,
		Group:         "g1",
		Listener:      tln,
		Scheduler:     replica.KindMAT,
		Workload:      testWorkload(),
		NestedLatency: 2 * time.Millisecond,
		Tick:          2 * time.Millisecond,
		Budget:        5 * time.Millisecond,
		Logf:          debugLogf,
	})
	if err != nil {
		t.Fatalf("starting target shard: %v", err)
	}
	defer target.Close()

	// Gateway fronting g1, with injected latency so source-shard calls
	// are still in flight when the performer dies. The cache check runs
	// BEFORE fault injection, so replays are not delayed.
	faults := chaos.NewFaults(3)
	faults.SetDelay(250 * time.Millisecond)
	gw, err := NewShardGateway(GatewayOptions{
		Group:    "g1",
		Members:  map[ids.ReplicaID]string{1: target.Addr()},
		Workload: testWorkload(),
		Faults:   faults,
		EpochDir: t.TempDir(),
		Logf:     debugLogf,
	})
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	defer gw.Close()

	// Source shard g0: three replicas whose nested-call backend is the
	// gateway, with shard-namespaced idempotency keys.
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.Group = "g0"
		o.IdemPrefix = "shard:g0"
		o.Backend = gw.Addr()
		o.NestedTimeout = 10 * time.Second
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
		o.Logf = debugLogf
	})

	type loadOut struct {
		res *LoadResult
		err error
	}
	ch := make(chan loadOut, 1)
	go func() {
		res, err := RunLoad(LoadOptions{
			Servers:           addrs,
			Clients:           2,
			RequestsPerClient: 8,
			Seed:              5,
			Workload:          testWorkload(),
			Timeout:           180 * time.Second,
			Logf:              debugLogf,
		})
		ch <- loadOut{res, err}
	}()

	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Nested.Performed >= 2
	}, "source performer never reached the gateway")
	servers[0].Close() // kill g0's sequencer and performer mid-call

	waitForStatus(t, servers[1], func(st Status) bool {
		return st.View >= 1 && st.Sequencer == 2
	}, "R2 did not take over shard g0")

	// Rejoin the dead performer as a follower of the new view so the
	// shard can fully converge.
	ln, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[1], err)
	}
	rejoined, err := New(Options{
		ID:              1,
		Group:           "g0",
		IdemPrefix:      "shard:g0",
		Listener:        ln,
		Peers:           map[ids.ReplicaID]string{2: addrs[2], 3: addrs[3]},
		Scheduler:       replica.KindMAT,
		Workload:        testWorkload(),
		NestedLatency:   2 * time.Millisecond,
		Tick:            2 * time.Millisecond,
		Budget:          5 * time.Millisecond,
		Backend:         gw.Addr(),
		NestedTimeout:   10 * time.Second,
		CheckpointEvery: 2,
		Epoch:           2,
		Recover:         true,
		GossipInterval:  100 * time.Millisecond,
		Logf:            debugLogf,
	})
	if err != nil {
		t.Fatalf("restarting R1: %v", err)
	}
	defer rejoined.Close()

	out := <-ch
	if out.err != nil {
		t.Fatalf("load across cross-shard performer kill: %v", out.err)
	}
	if out.res.Errors > 0 {
		t.Fatalf("%d request errors", out.res.Errors)
	}
	if !out.res.Converged {
		t.Fatalf("source shard did not converge: %+v", out.res.Statuses)
	}
	for _, st := range out.res.Statuses {
		if st.Hash != out.res.Statuses[0].Hash {
			t.Fatalf("source-shard hash fork after performer kill: %+v", out.res.Statuses)
		}
	}

	// Exactly-once across the shard boundary: the gateway executed each
	// distinct logical call once even though two different replicas
	// performed calls across the takeover, every key carries the source
	// shard's namespace, and nothing else ever called this gateway.
	be := gw.Backend()
	applies, keys := be.Applies(), uint64(be.Stats()["cached_keys"].(int))
	if applies != keys {
		t.Fatalf("gateway applies %d != distinct keys %d (double-applied cross-shard calls)",
			applies, keys)
	}
	if applies == 0 {
		t.Fatal("no cross-shard calls reached the gateway")
	}
	byPrefix := be.AppliesByPrefix()
	if byPrefix["shard:g0"] != applies {
		t.Fatalf("applies by prefix %v; want all %d under shard:g0", byPrefix, applies)
	}
	// Every gateway apply became at least one completed request in the
	// target shard (retried submissions may add more, never fewer).
	if st := target.Status(); uint64(st.Completed) < applies {
		t.Fatalf("target shard completed %d < gateway applies %d", st.Completed, applies)
	}
	if st2 := servers[1].Status(); st2.Nested.Performed == 0 {
		t.Fatalf("promoted performer never performed: %+v", st2.Nested)
	}
}
