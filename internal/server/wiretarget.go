package server

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/member"
	"detmt/internal/replica"
	"detmt/internal/shard"
	"detmt/internal/vclock"
	"detmt/internal/wire"
)

// FetchRing fetches the serialized ring config from every given member
// address (any shard's port of each process works — every tenant serves
// the same blob), verifies the reachable ones agree, and returns the
// decoded config. This is how a router joins a sharded deployment: ask,
// verify, route — never assume. Unreachable members are tolerated (a
// process mid-restart must not block a gateway from starting): the fetch
// fails only when NO member answers, or when two answering members serve
// different rings — disagreement means the deployment itself is
// inconsistent and no routing decision is safe.
func FetchRing(addrs []string, timeout time.Duration,
	dial func(addr string) (net.Conn, error),
	logf func(string, ...interface{})) (shard.RingConfig, error) {
	if len(addrs) == 0 {
		return shard.RingConfig{}, fmt.Errorf("ring: no addresses")
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	// One throwaway client transport per address: the blobs come over
	// the control channel, so we only need connectivity, not identity.
	// Fetches run concurrently so a dead member costs one timeout, not
	// one timeout per dead member.
	epoch := nextLoadEpoch("", "ringfetch")
	type fetched struct {
		blob []byte
		err  error
	}
	results := make([]fetched, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		i, addr := i, addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := wire.NewTCP(wire.Options{
				Name:  fmt.Sprintf("ringfetch-%d", i),
				Epoch: epoch,
				Peers: map[ids.ReplicaID]string{1: addr},
				Dial:  dial,
				Logf:  logf,
			})
			if err != nil {
				results[i].err = fmt.Errorf("fetch from %s: %v", addr, err)
				return
			}
			b, err := tr.Control(1, []byte("ring"), timeout)
			tr.Close()
			if err != nil {
				results[i].err = fmt.Errorf("fetch from %s: %v", addr, err)
				return
			}
			if len(b) > 0 && b[0] == '{' {
				results[i].err = fmt.Errorf("%s answered %s (not a sharded server?)", addr, b)
				return
			}
			results[i].blob = b
		}()
	}
	wg.Wait()
	blobs := make(map[string][]byte, len(addrs))
	var unreachable []string
	for i, addr := range addrs {
		if results[i].err != nil {
			unreachable = append(unreachable, results[i].err.Error())
			if logf != nil {
				logf("ring: tolerating unreachable member: %v", results[i].err)
			}
			continue
		}
		blobs[addr] = results[i].blob
	}
	if len(blobs) == 0 {
		return shard.RingConfig{}, fmt.Errorf("ring: no member reachable: %s",
			strings.Join(unreachable, "; "))
	}
	return shard.VerifyAgreement(blobs)
}

// shardStack is one group's client-side stack: a transport (tagged with
// the group on a ring), a client-only gcs group with a view poller, and
// a client pool.
type shardStack struct {
	servers  map[ids.ReplicaID]string
	tr       *wire.TCP
	group    *gcs.Group
	pool     []*replica.Client
	stopPoll func()
	base     int // completion watermark before this run (cumulative counters)
}

func (st *shardStack) close() {
	st.stopPoll()
	st.group.Close()
}

// newShardStack dials one group's members and builds its client pool.
// tag is the ring group tag ("g<id>"), or "" for an unsharded cluster.
func newShardStack(members map[ids.ReplicaID]string, tag string, clients, clientBase int, epochDir string,
	dial func(string) (net.Conn, error), logf func(string, ...interface{})) (*shardStack, error) {
	name := "load"
	if tag != "" {
		name += "-" + tag
	}
	epoch := nextLoadEpoch(epochDir, name)
	tr, err := wire.NewTCP(wire.Options{
		Name:  name,
		Group: tag,
		Epoch: epoch,
		Peers: members,
		Dial:  dial,
		Logf:  logf,
	})
	if err != nil {
		return nil, err
	}
	memberIDs := make([]ids.ReplicaID, 0, len(members))
	for id := range members {
		memberIDs = append(memberIDs, id)
	}
	clock := vclock.NewReal()
	grp := gcs.NewGroup(gcs.Config{
		Clock:     clock,
		Group:     tag,
		Members:   memberIDs,
		Transport: tr,
		Local:     []ids.ReplicaID{}, // client-only process: no replicas here
		Logf:      logf,
	})
	st := &shardStack{servers: members, tr: tr, group: grp}
	// The client process hosts no replicas, so it receives no stamped
	// heartbeats and cannot detect a sequencer takeover on its own. The
	// poller installs newer views, re-routing and retransmitting every
	// pending request, so in-flight invocations survive the failover.
	st.stopPoll = startViewPoller(tr, grp, members, logf)
	st.pool = make([]*replica.Client, clients)
	for i := range st.pool {
		st.pool[i] = replica.NewClient(clock, grp, ids.ClientID(clientBase+i+1))
	}
	// The replicas' completion counters are cumulative, so a warm
	// cluster starts above zero: capture the base before offering load.
	if sts, err := pollStatuses(tr, members); err == nil {
		for _, s := range sts {
			if s.Completed > st.base {
				st.base = s.Completed
			}
		}
	}
	return st, nil
}

// settle is the one convergence wait: it polls the group until every
// replica reports at least expected completions and all report the
// same count — against a warm cluster the counters are cumulative, so a
// replica still applying the tail can satisfy the lower bound while
// lagging its peers — then compares their schedule hashes.
func (st *shardStack) settle(expected int, by time.Time) (ShardSummary, error) {
	var sum ShardSummary
	for {
		statuses, err := pollStatuses(st.tr, st.servers)
		if err == nil {
			done := true
			for _, s := range statuses {
				if s.Completed < expected || s.Completed != statuses[0].Completed {
					done = false
				}
			}
			if done {
				sum.Statuses = statuses
				break
			}
		}
		if time.Now().After(by) {
			sum.Statuses, _ = pollStatuses(st.tr, st.servers)
			if err != nil {
				return sum, fmt.Errorf("did not converge: %v", err)
			}
			return sum, fmt.Errorf("did not reach %d completed requests within the settle timeout", expected)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sum.Converged = true
	for _, s := range sum.Statuses {
		sum.Hashes = append(sum.Hashes, s.Hash)
		if s.Hash != sum.Statuses[0].Hash || s.Completed != sum.Statuses[0].Completed {
			sum.Converged = false
		}
	}
	return sum, nil
}

// wireTarget is the ring-routed wire target: one shardStack per group.
// An unsharded cluster is its one-group, untagged case.
type wireTarget struct {
	ring   *shard.Ring // nil: one untagged group
	ids    []int       // group ids, ascending like stacks
	stacks []*shardStack
}

// dialWire dials the target LoadOptions describe: Ring's groups, or
// the single group Servers.
func dialWire(o LoadOptions) (*wireTarget, error) {
	w := &wireTarget{}
	type group struct {
		id      int
		tag     string
		members map[ids.ReplicaID]string
	}
	var groups []group
	if o.Ring != nil {
		r, err := shard.NewRing(*o.Ring)
		if err != nil {
			return nil, err
		}
		w.ring = r
		for _, g := range r.Config().Groups {
			groups = append(groups, group{g.ID, fmt.Sprintf("g%d", g.ID), g.Members})
		}
	} else {
		if len(o.Servers) == 0 {
			return nil, fmt.Errorf("load: no servers given")
		}
		groups = []group{{0, "", o.Servers}}
	}
	for _, g := range groups {
		st, err := newShardStack(g.members, g.tag, o.Clients, o.ClientBase, o.EpochDir, o.Dial, o.Logf)
		if err != nil {
			w.close()
			return nil, err
		}
		w.ids = append(w.ids, g.id)
		w.stacks = append(w.stacks, st)
	}
	return w, nil
}

func (w *wireTarget) close() {
	for _, st := range w.stacks {
		st.close()
	}
}

func (w *wireTarget) Groups() int { return len(w.stacks) }

func (w *wireTarget) Route(key uint64) int {
	if w.ring == nil {
		return 0
	}
	return w.ring.Route(key)
}

func (w *wireTarget) Submit(group, slot int, reqs []Request) []Pending {
	calls := make([]replica.Call, len(reqs))
	for i, r := range reqs {
		calls[i] = replica.Call{Method: r.Method, Args: r.Args}
	}
	ps := w.stacks[group].pool[slot].InvokeBatch(calls)
	out := make([]Pending, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

func (w *wireTarget) Settle(answered []int, by time.Time) ([]ShardSummary, error) {
	sums := make([]ShardSummary, len(w.stacks))
	var firstErr error
	for g, st := range w.stacks {
		sum, err := st.settle(st.base+answered[g], by)
		sum.Shard = w.ids[g]
		if err != nil && firstErr == nil {
			where := "cluster"
			if w.ring != nil {
				where = fmt.Sprintf("group g%d", w.ids[g])
			}
			firstErr = fmt.Errorf("load: %s %v", where, err)
		}
		sums[g] = sum
	}
	return sums, firstErr
}

// startViewPoller watches the members' status endpoints and installs any
// newer view — and any newer membership epoch — into the client-only
// group (a process hosting no replicas receives no stamped heartbeats,
// so it cannot observe a takeover or a reconfiguration on its own). The
// boot server list is just the first hop: reported joiners get transport
// links and enter the polled set, so a client survives every original
// member being replaced. Returns a stop function.
func startViewPoller(tr *wire.TCP, g *gcs.Group, servers map[ids.ReplicaID]string,
	logf func(string, ...interface{})) func() {
	// Private copy: callers keep using their map for result polling; the
	// poller's grows with the cluster.
	known := make(map[ids.ReplicaID]string, len(servers))
	for id, a := range servers {
		known[id] = a
	}
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		var mu sync.Mutex // guards known across the per-member goroutines
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			mu.Lock()
			polled := make([]ids.ReplicaID, 0, len(known))
			for id := range known {
				polled = append(polled, id)
			}
			mu.Unlock()
			var wg sync.WaitGroup
			for _, id := range polled {
				wg.Add(1)
				go func(id ids.ReplicaID) {
					defer wg.Done()
					b, err := tr.Control(id, []byte("status"), time.Second)
					if err != nil {
						return
					}
					var st Status
					if json.Unmarshal(b, &st) != nil {
						return
					}
					if v, _ := g.CurrentView(); st.View > v {
						if logf != nil {
							logf("openload: adopting view %d (sequencer %v) from %v", st.View, st.Sequencer, id)
						}
						g.AdoptView(st.View, st.Sequencer)
					}
					mu.Lock()
					adoptClusterShape(tr, g, known, st.Membership, logf)
					mu.Unlock()
				}(id)
			}
			wg.Wait()
		}
	}()
	return func() { close(stop) }
}

// adoptClusterShape folds one member's reported membership snapshot into
// a client-side stack: newly reported voters and pending joiners get
// transport links and join the known set, and the client-only group's
// voter set advances to the reported epoch — so Broadcast keeps
// forwarding to a sequencer that actually exists after the member the
// client booted against is removed. Epoch gating makes stale and
// duplicate reports no-ops, so polling many members is safe.
func adoptClusterShape(tr *wire.TCP, g *gcs.Group, known map[ids.ReplicaID]string,
	snap *member.Snapshot, logf func(string, ...interface{})) {
	if snap == nil || len(snap.Voters) == 0 {
		return
	}
	for _, m := range snap.Learners {
		if _, ok := known[m.ID]; !ok && m.Addr != "" {
			tr.AddPeer(m.ID, m.Addr)
			known[m.ID] = m.Addr
		}
	}
	if snap.Epoch <= g.MembershipEpoch() {
		return
	}
	voters := make([]ids.ReplicaID, 0, len(snap.Voters))
	for _, m := range snap.Voters {
		voters = append(voters, m.ID)
		if _, ok := known[m.ID]; !ok && m.Addr != "" {
			tr.AddPeer(m.ID, m.Addr)
			known[m.ID] = m.Addr
		}
	}
	if g.ApplyMembership(snap.Epoch, voters, false) && logf != nil {
		logf("client: adopted membership epoch %d: voters %v", snap.Epoch, voters)
	}
}
