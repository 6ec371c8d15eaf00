package server

import (
	"net"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/workload"
)

// testWorkload is a scaled-down Fig. 1 configuration: the paced virtual
// clock runs in real time, so the virtual makespan is wall time too.
func testWorkload() workload.Fig1Config {
	return workload.Fig1Config{
		Iterations:   4,
		Mutexes:      10,
		PNested:      0.25,
		PCompute:     0.25,
		ComputeDur:   200 * time.Microsecond,
		Announceable: true,
	}
}

// startCluster boots n replica servers on loopback listeners and returns
// them plus the address map a load generator needs.
func startCluster(t *testing.T, n int, kind replica.SchedulerKind) ([]*Server, map[ids.ReplicaID]string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := map[ids.ReplicaID]string{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[ids.ReplicaID(i+1)] = ln.Addr().String()
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		id := ids.ReplicaID(i + 1)
		peers := map[ids.ReplicaID]string{}
		for pid, addr := range addrs {
			if pid != id {
				peers[pid] = addr
			}
		}
		srv, err := New(Options{
			ID:            id,
			Listener:      lns[i],
			Peers:         peers,
			Scheduler:     kind,
			Workload:      testWorkload(),
			NestedLatency: 2 * time.Millisecond,
			Tick:          2 * time.Millisecond,
			Budget:        5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
	}
	return servers, addrs
}

// runCluster drives one load run against a fresh cluster and asserts the
// basic Fig. 1 invariants: no errors, all replicas converge on the same
// consistency hash and the expected final state.
func runCluster(t *testing.T, kind replica.SchedulerKind, o LoadOptions) *LoadResult {
	t.Helper()
	_, addrs := startCluster(t, 3, kind)
	o.Servers = addrs
	o.Workload = testWorkload()
	if o.Timeout == 0 {
		o.Timeout = 90 * time.Second
	}
	res, err := RunLoad(o)
	if err != nil {
		t.Fatalf("%s load run: %v", kind, err)
	}
	if res.Errors > 0 {
		t.Fatalf("%s: %d request errors", kind, res.Errors)
	}
	if !res.Converged {
		t.Fatalf("%s: cluster did not converge: %+v", kind, res.Statuses)
	}
	total := o.Clients * o.RequestsPerClient
	wantState := int64(total * testWorkload().Iterations)
	for _, st := range res.Statuses {
		if st.State != wantState {
			t.Fatalf("%s: replica %v state %d, want %d", kind, st.ID, st.State, wantState)
		}
	}
	if res.Service.N() != uint64(total) {
		t.Fatalf("%s: recorded %d latencies, want %d", kind, res.Service.N(), total)
	}
	if res.Service.Mean() <= 0 {
		t.Fatalf("%s: non-positive mean latency", kind)
	}
	return res
}

// TestClusterMAT runs the Fig. 1 workload over a real 3-server loopback
// cluster under MAT and checks all replicas converge on one schedule.
func TestClusterMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	runCluster(t, replica.KindMAT, LoadOptions{Clients: 2, RequestsPerClient: 3, Seed: 1})
}

// TestClusterLSA does the same under LSA: the leader's decision stream
// crosses real sockets to the followers.
func TestClusterLSA(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	runCluster(t, replica.KindLSA, LoadOptions{Clients: 2, RequestsPerClient: 3, Seed: 1})
}

// TestClusterSEQ covers the strictest strategy for good measure.
func TestClusterSEQ(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	runCluster(t, replica.KindSEQ, LoadOptions{Clients: 2, RequestsPerClient: 2, Seed: 3})
}

// TestReconnectDeterminism runs the same single-client pipelined burst
// twice — once clean, once with the sequencer's connection to replica 3
// repeatedly severed mid-run — and asserts both runs produce the same
// consistency hash on every replica. Reconnect replay plus duplicate
// suppression must make link failures invisible to the deterministic
// schedule (stamps are virtual instants, so late redelivery does not
// move executions).
func TestReconnectDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	run := func(faulty bool) *LoadResult {
		servers, addrs := startCluster(t, 3, replica.KindMAT)
		stop := make(chan struct{})
		defer close(stop)
		if faulty {
			go func() {
				for i := 0; i < 4; i++ {
					select {
					case <-stop:
						return
					case <-time.After(8 * time.Millisecond):
					}
					servers[0].Transport().DropPeer(3) // sequencer -> R3
				}
			}()
		}
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
			t.Fatalf("faulty=%v: %v", faulty, err)
		}
		if res.Errors > 0 {
			t.Fatalf("faulty=%v: %d request errors", faulty, res.Errors)
		}
		if !res.Converged {
			t.Fatalf("faulty=%v: cluster did not converge: %+v", faulty, res.Statuses)
		}
		return res
	}
	clean := run(false)
	faulty := run(true)
	if clean.Hashes[0] != faulty.Hashes[0] {
		t.Fatalf("link failure changed the deterministic schedule: clean hash %x, faulty hash %x",
			clean.Hashes[0], faulty.Hashes[0])
	}
}
