package server

import (
	"fmt"
	"net"
	"time"

	"detmt/internal/lang"
	"detmt/internal/shard"
)

// ShardClientOptions configures DialShards.
type ShardClientOptions struct {
	// Clients is the per-shard client-pool size (default 16). Callers
	// multiplex onto the pool by slot; a slot maps to the same client
	// identity for the process's lifetime.
	Clients int
	// ClientBase offsets the generated client ids (see
	// LoadOptions.ClientBase: concurrent dialers against the same
	// cluster must use disjoint ranges).
	ClientBase int
	// EpochDir persists the wire-epoch counters ("": the shared temp-dir
	// default).
	EpochDir string
	Dial     func(addr string) (net.Conn, error)
	Logf     func(format string, args ...interface{})
}

// ShardClients is the long-lived client side of a sharded deployment:
// one group-tagged transport, client-only group, view poller, and
// client pool per shard, plus the consistent-hash router. It is what a
// serving front end (the HTTP gateway) holds open between requests —
// unlike the load engine's wire target, which builds and tears the same
// stacks down around a single run. Invoke is safe for concurrent use.
type ShardClients struct {
	ring    shard.RingConfig
	router  *shard.Router
	stacks  []*shardStack
	clients int
	logf    func(string, ...interface{})
}

// DialShards dials every shard of the ring and builds the pools.
func DialShards(ring shard.RingConfig, o ShardClientOptions) (*ShardClients, error) {
	r, err := shard.NewRing(ring)
	if err != nil {
		return nil, err
	}
	if o.Clients <= 0 {
		o.Clients = 16
	}
	cfg := r.Config()
	sc := &ShardClients{
		ring:    cfg,
		router:  shard.NewRouter(r),
		stacks:  make([]*shardStack, len(cfg.Groups)),
		clients: o.Clients,
		logf:    o.Logf,
	}
	for k := range cfg.Groups {
		g := cfg.Groups[k]
		st, err := newShardStack(g.Members, fmt.Sprintf("g%d", g.ID), o.Clients, o.ClientBase, o.EpochDir, o.Dial, o.Logf)
		if err != nil {
			sc.Close()
			return nil, err
		}
		sc.stacks[k] = st
	}
	return sc, nil
}

// Ring returns the verified topology.
func (sc *ShardClients) Ring() shard.RingConfig { return sc.ring }

// Shards returns the number of shards.
func (sc *ShardClients) Shards() int { return len(sc.stacks) }

// Route maps a routing key to its shard (and counts the decision).
func (sc *ShardClients) Route(key uint64) int { return sc.router.Route(key) }

// Counts returns how many routing decisions landed on each shard.
func (sc *ShardClients) Counts() []uint64 { return sc.router.Counts() }

// Invoke routes key to its shard and performs one invocation on the
// slot-th pooled client (slot wraps modulo the pool size), retrying
// fast-fail no-sequencer windows until deadline — a view change
// mid-request costs a backoff, not an error.
func (sc *ShardClients) Invoke(slot int, key uint64, deadline time.Time,
	method string, args []lang.Value) (lang.Value, time.Duration, int, error) {
	k := sc.router.Route(key)
	if slot < 0 {
		slot = -slot
	}
	cl := sc.stacks[k].pool[slot%sc.clients]
	return invokeWithRetry(sc.logf, deadline, func() (lang.Value, time.Duration, error) {
		return cl.Invoke(method, args...)
	})
}

// Statuses polls shard k's replicas' control endpoints (ascending id).
func (sc *ShardClients) Statuses(k int) ([]Status, error) {
	st := sc.stacks[k]
	return pollStatuses(st.tr, st.servers)
}

// Close tears every shard's client stack down.
func (sc *ShardClients) Close() {
	for _, st := range sc.stacks {
		if st != nil {
			st.close()
		}
	}
}
