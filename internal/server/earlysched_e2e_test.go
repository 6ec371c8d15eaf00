package server

import (
	"net"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/workload"
)

// testFamilies is a scaled-down family workload for real-socket runs:
// the paced clock runs in real time, so compute stays short and the
// per-request iteration count small.
func testFamilies(conflict float64) workload.FamilyConfig {
	return workload.FamilyConfig{
		Families:   4,
		PerFamily:  4,
		Iterations: 3,
		PCompute:   0.25,
		ComputeDur: 200 * time.Microsecond,
		PGlobal:    conflict,
	}
}

// startEarlyCluster boots n class-parallel replica servers hosting the
// family workload on loopback listeners.
func startEarlyCluster(t *testing.T, n int, kind replica.SchedulerKind, fam workload.FamilyConfig) ([]*Server, map[ids.ReplicaID]string) {
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
			Families:      &fam,
			EarlySched:    true,
			Lanes:         4,
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

// runEarlyCluster drives one family-workload load run against a fresh
// class-parallel cluster and asserts the admission invariants on top of
// the usual ones: every replica reports class metrics, every commit is
// accounted to exactly one lane discipline, and the summed family state
// equals requests × iterations (each request increments its family's
// field — or gstate — once per iteration).
func runEarlyCluster(t *testing.T, kind replica.SchedulerKind, conflict float64, o LoadOptions) *LoadResult {
	t.Helper()
	fam := testFamilies(conflict)
	_, addrs := startEarlyCluster(t, 3, kind, fam)
	o.Servers = addrs
	o.Draw = FamilyDraw(fam)
	if o.Timeout == 0 {
		o.Timeout = 90 * time.Second
	}
	res, err := RunLoad(o)
	if err != nil {
		t.Fatalf("%s early-sched load run: %v", kind, err)
	}
	if res.Errors > 0 {
		t.Fatalf("%s: %d request errors", kind, res.Errors)
	}
	if !res.Converged {
		t.Fatalf("%s: cluster did not converge: %+v", kind, res.Statuses)
	}
	total := o.Clients * o.RequestsPerClient
	wantState := int64(total * fam.Iterations)
	for _, st := range res.Statuses {
		if st.State != wantState {
			t.Fatalf("%s: replica %v state %d, want %d", kind, st.ID, st.State, wantState)
		}
		if st.Classes == nil {
			t.Fatalf("%s: replica %v reports no class metrics under -early-sched", kind, st.ID)
		}
		if got := st.Classes.ParallelCommits + st.Classes.SerialCommits; got != uint64(total) {
			t.Fatalf("%s: replica %v accounted %d commits across lanes, want %d",
				kind, st.ID, got, total)
		}
	}
	return res
}

// TestClusterEarlySchedMAT runs the family workload over a real
// 3-server loopback cluster with conflict-class early scheduling under
// MAT: the sequencer stamps classes into the wire-v5 envelopes, every
// replica admits them through 4 lanes, and all replicas still converge
// on one consistency hash.
func TestClusterEarlySchedMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	res := runEarlyCluster(t, replica.KindMAT, 0, LoadOptions{Clients: 2, RequestsPerClient: 3, Seed: 1})
	// At 0% conflict every request is classifiable, so nothing may
	// escalate to the serial (global) discipline.
	for _, st := range res.Statuses {
		if st.Classes.Escalations != 0 {
			t.Fatalf("replica %v: %d escalations at 0%% conflict", st.ID, st.Classes.Escalations)
		}
		if st.Classes.ParallelCommits == 0 {
			t.Fatalf("replica %v: no parallel commits at 0%% conflict", st.ID)
		}
	}
}

// TestClusterEarlySchedPDS covers the windowed scheduler's class-aware
// admission over real sockets, with a mixed conflict rate so both the
// lane path and the merge-barrier escalation path are exercised.
func TestClusterEarlySchedPDS(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	runEarlyCluster(t, replica.KindPDS, 0.25, LoadOptions{Clients: 2, RequestsPerClient: 3, Seed: 2})
}

// TestClusterEarlySchedChaos is the class-parallel chaos soak of the
// e2e matrix: the sequencer's links to both followers are repeatedly
// severed while classes stream through concurrent lanes, and the run
// must still finish with zero errors and bit-identical consistency
// hashes — reconnect replay plus duplicate suppression must compose
// with class-aware admission.
func TestClusterEarlySchedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket chaos soak")
	}
	fam := testFamilies(0.25)
	servers, addrs := startEarlyCluster(t, 3, replica.KindMAT, fam)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(8 * time.Millisecond):
			}
			servers[0].Transport().DropPeer(ids.ReplicaID(2 + i%2)) // sequencer -> R2/R3
		}
	}()
	res, err := RunLoad(LoadOptions{
		Servers:           addrs,
		Clients:           2,
		RequestsPerClient: 4,
		Seed:              5,
		Draw:              FamilyDraw(fam),
		Timeout:           90 * time.Second,
	})
	if err != nil {
		t.Fatalf("chaos load run: %v", err)
	}
	if res.Errors > 0 {
		t.Fatalf("chaos run: %d request errors", res.Errors)
	}
	if !res.Converged {
		t.Fatalf("chaos run did not converge: %+v", res.Statuses)
	}
	for _, st := range res.Statuses {
		if st.Classes == nil {
			t.Fatalf("replica %v lost its class metrics under chaos", st.ID)
		}
	}
}
