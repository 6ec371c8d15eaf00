// Command detmt-load is the load generator for a running detmt-server
// cluster: N concurrent clients issue Fig. 1 requests over TCP, wait for
// the first replica reply, and report the client-perceived latency
// distribution (the paper's Fig. 1 measurement protocol, over real
// sockets). -rate switches to an open loop, -shards routes over a
// sharded deployment's ring, -http drives a detmt-gateway facade; all of
// them are one server.RunLoad call. It exits non-zero if the replicas'
// schedule consistency hashes diverge.
//
// Usage:
//
//	detmt-load -servers 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 \
//	    -clients 4 -requests 8 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/kvapi"
	"detmt/internal/metrics"
	"detmt/internal/server"
	"detmt/internal/workload"
)

func main() {
	servers := flag.String("servers", "", "cluster members as id=addr,id=addr,... (all of them)")
	clients := flag.Int("clients", 4, "number of concurrent closed-loop clients")
	requests := flag.Int("requests", 8, "requests per client")
	seed := flag.Uint64("seed", 1, "client-side decision seed")
	pipelined := flag.Bool("pipelined", false, "submit each client's requests as one atomic batch")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run timeout")
	rate := flag.Float64("rate", 0,
		"open-loop mode: offered arrival rate in req/s decoupled from responses (0: closed loop); -clients sizes the submit pool")
	duration := flag.Duration("duration", 5*time.Second, "open loop: measured window")
	warmup := flag.Duration("warmup", time.Second, "open loop: warmup before the measured window (completions discarded)")
	poisson := flag.Bool("poisson", false, "open loop: Poisson (exponential) inter-arrival times instead of fixed")
	slo := flag.Duration("slo", 0, "open loop: p99 intent-latency budget for the SLO verdict (0: none)")
	batchSubmit := flag.Bool("batch-submit", false, "open loop: coalesce due arrivals into one atomic wire frame per pump wakeup")
	maxInFlight := flag.Int("max-inflight", 0, "open loop: outstanding-request cap; arrivals beyond it are shed (0: 4096)")
	iterations := flag.Int("iterations", 10, "Fig. 1 loop iterations per request (must match the servers)")
	mutexes := flag.Int("mutexes", 100, "Fig. 1 mutex set size (must match the servers)")
	families := flag.Int("families", 0,
		"drive the family-partitioned workload with this many families (0: Fig. 1; must match the servers' -families)")
	conflict := flag.Float64("conflict", 0, "family workload: cross-family request probability (must match the servers)")
	hotSkew := flag.Float64("hot-skew", 0, "family workload: hot-key skew (must match the servers)")
	clientBase := flag.Int("client-base", 0,
		"client id offset (ids are base+1..base+clients); rerunning against the SAME cluster needs a disjoint range")
	shardsOn := flag.Bool("shards", false,
		"sharded mode: fetch the ring from -servers (any tenant port of each member), route every request by key, and report per-shard counts and the imbalance ratio")
	httpURL := flag.String("http", "",
		"httpload mode: drive a detmt-gateway facade at this base URL (e.g. http://127.0.0.1:8080) instead of the TCP protocol; closed loop, or open loop with -rate")
	kvOn := flag.Bool("kv", false,
		"sharded mode: drive the replicated KV object (servers started with -kv) instead of Fig. 1")
	keys := flag.Int("keys", 1024, "KV key-space size (-http and -kv modes)")
	pGet := flag.Float64("pget", 0.5, "KV read fraction (-http and -kv modes)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	verbose := flag.Bool("v", false, "log transport diagnostics")
	chaosOn := flag.Bool("chaos", false, "run a seeded fault-injection plan against this generator's own connections")
	chaosSeed := flag.Uint64("chaos-seed", 1, "chaos plan seed (reproducible fault schedule)")
	chaosStep := flag.Duration("chaos-step", 100*time.Millisecond, "interval between chaos fault decisions")
	chaosSever := flag.Float64("chaos-sever", 0.1, "per-step probability of severing every connection")
	chaosPartition := flag.Float64("chaos-partition", 0.05, "per-step probability of partitioning one random server")
	chaosPartitionFor := flag.Duration("chaos-partition-for", 500*time.Millisecond, "how long an injected partition lasts")
	chaosDelay := flag.Float64("chaos-delay", 0.2, "per-step probability of delaying reads for one step")
	chaosDelayBy := flag.Duration("chaos-delay-by", 5*time.Millisecond, "read delay applied when the delay fault fires")
	flag.Parse()

	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}
	o := server.LoadOptions{
		Clients:           *clients,
		RequestsPerClient: *requests,
		Pipelined:         *pipelined,
		Timeout:           *timeout,
		Rate:              *rate,
		Duration:          *duration,
		Warmup:            *warmup,
		Poisson:           *poisson,
		MaxInFlight:       *maxInFlight,
		BatchSubmit:       *batchSubmit,
		SLO:               *slo,
		Seed:              *seed,
		ClientBase:        *clientBase,
		Logf:              logf,
	}
	kind := "cluster"
	var inj *chaos.Injector
	if *httpURL != "" {
		kind = "http"
		t := kvapi.NewHTTPTarget(*httpURL)
		defer t.Close()
		o.Target = t
		o.Draw = server.KVDraw(*keys, *pGet)
	} else {
		serverMap, err := parseServers(*servers)
		if err != nil || len(serverMap) == 0 {
			fmt.Fprintf(os.Stderr, "detmt-load: bad -servers: %v\n", err)
			os.Exit(2)
		}
		if *kvOn && !*shardsOn {
			fmt.Fprintln(os.Stderr, "detmt-load: -kv requires -shards (or use -http against a gateway)")
			os.Exit(2)
		}
		o.Workload = workload.DefaultFig1()
		o.Workload.Iterations = *iterations
		o.Workload.Mutexes = *mutexes
		if *families > 0 {
			if *shardsOn {
				fmt.Fprintln(os.Stderr, "detmt-load: -families is not supported in sharded mode")
				os.Exit(2)
			}
			f := workload.DefaultFamilies()
			f.Families = *families
			f.PGlobal = *conflict
			f.HotSkew = *hotSkew
			o.Draw = server.FamilyDraw(f)
		}
		addrs := make([]string, 0, len(serverMap))
		for _, a := range serverMap {
			addrs = append(addrs, a)
		}
		if *chaosOn {
			inj = chaos.New()
			o.Dial = inj.Dial(nil)
			stop := make(chan struct{})
			defer close(stop)
			go inj.Run(chaos.Plan{
				Seed:         *chaosSeed,
				Step:         *chaosStep,
				PSever:       *chaosSever,
				PPartition:   *chaosPartition,
				PartitionFor: *chaosPartitionFor,
				PDelay:       *chaosDelay,
				DelayBy:      *chaosDelayBy,
				Addrs:        addrs,
			}, stop)
		}
		if *shardsOn {
			kind = "ring"
			ring, err := server.FetchRing(addrs, 10*time.Second, o.Dial, logf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "detmt-load: %v\n", err)
				os.Exit(1)
			}
			ringHash, _ := ring.Hash()
			log.Printf("detmt-load: ring %016x with %d shard(s), verified across %d member(s)",
				ringHash, len(ring.Groups), len(addrs))
			o.Ring = &ring
			if *kvOn {
				o.Draw = server.KVDraw(*keys, *pGet)
			}
		} else {
			o.Servers = serverMap
		}
	}

	res, err := server.RunLoad(o)
	if inj != nil {
		sev, blocked := inj.Stats()
		log.Printf("detmt-load: chaos totals: severed=%d dials-blocked=%d", sev, blocked)
	}
	if res == nil {
		fmt.Fprintf(os.Stderr, "detmt-load: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		printJSON(res, o, kind)
	} else {
		printText(res, o, kind)
	}
	// Fatal: a run error or divergence; through the facade, which hides
	// the replicas, any failed request. A missed SLO alone is not — the
	// ceiling search treads over the SLO on purpose.
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-load: %v\n", err)
		os.Exit(1)
	}
	if !res.Converged {
		fmt.Fprintln(os.Stderr, "detmt-load: DIVERGED — replica consistency hashes differ")
		os.Exit(1)
	}
	if kind == "http" && res.Errors+res.NoSeqErr > 0 {
		os.Exit(1)
	}
}

// summary is the one JSON shape: the loop's block, the shared counters,
// and the target's replica block — per replica for an unsharded cluster,
// per shard for a ring, none for the facade, which hides its replicas.
type summary struct {
	*closedSummary
	*openSummary
	Errors    int     `json:"errors"`
	NoSeqErr  int     `json:"no_sequencer_errors"`
	Timeouts  int     `json:"timeouts"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Converged *bool   `json:"converged,omitempty"`
	*clusterSummary
	*ringSummary
}

type closedSummary struct {
	Requests int     `json:"requests"`
	Retries  int     `json:"retries"`
	MeanMs   float64 `json:"latency_mean_ms"`
	P50Ms    float64 `json:"latency_p50_ms"`
	P95Ms    float64 `json:"latency_p95_ms"`
	MaxMs    float64 `json:"latency_max_ms"`
}

type openSummary struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Sent        int     `json:"sent"`
	Measured    int     `json:"measured"`
	Shed        int     `json:"shed"`
	IntentP50Ms float64 `json:"intent_p50_ms"`
	IntentP99Ms float64 `json:"intent_p99_ms"`
	IntentP999  float64 `json:"intent_p999_ms"`
	IntentMaxMs float64 `json:"intent_max_ms"`
	SvcP50Ms    float64 `json:"service_p50_ms"`
	SvcP99Ms    float64 `json:"service_p99_ms"`
	SLOMet      bool    `json:"slo_met"`
}

type clusterSummary struct {
	Hashes   []uint64        `json:"hashes"`
	Statuses []server.Status `json:"statuses"`
}

type ringSummary struct {
	Imbalance float64     `json:"imbalance"`
	PerShard  []shardLine `json:"per_shard"`
}

// shardLine is the per-shard slice of the ring summary.
type shardLine struct {
	Shard       int             `json:"shard"`
	Routed      uint64          `json:"routed"`
	AchievedRPS float64         `json:"achieved_rps,omitempty"`
	Converged   bool            `json:"converged"`
	Hashes      []uint64        `json:"hashes"`
	Statuses    []server.Status `json:"statuses"`
}

func printJSON(res *server.LoadResult, o server.LoadOptions, kind string) {
	out := summary{
		Errors:    res.Errors,
		NoSeqErr:  res.NoSeqErr,
		Timeouts:  res.Timeouts,
		ElapsedMs: ms(res.Elapsed),
	}
	if o.Rate > 0 {
		iq := res.Intent.Quantiles(50, 99, 99.9)
		sq := res.Service.Quantiles(50, 99)
		out.openSummary = &openSummary{
			OfferedRPS:  res.Offered,
			AchievedRPS: res.Achieved,
			Sent:        res.Sent,
			Measured:    res.Measured,
			Shed:        res.Shed,
			IntentP50Ms: ms(iq[0]),
			IntentP99Ms: ms(iq[1]),
			IntentP999:  ms(iq[2]),
			IntentMaxMs: ms(res.Intent.Max()),
			SvcP50Ms:    ms(sq[0]),
			SvcP99Ms:    ms(sq[1]),
			SLOMet:      res.SLOMet,
		}
	} else {
		qs := res.Service.Quantiles(50, 95)
		out.closedSummary = &closedSummary{
			Requests: res.Requests,
			Retries:  res.Retries,
			MeanMs:   ms(res.Service.Mean()),
			P50Ms:    ms(qs[0]),
			P95Ms:    ms(qs[1]),
			MaxMs:    ms(res.Service.Max()),
		}
	}
	switch kind {
	case "cluster":
		out.Converged = &res.Converged
		out.clusterSummary = &clusterSummary{Hashes: res.Hashes, Statuses: res.Statuses}
	case "ring":
		out.Converged = &res.Converged
		lines := make([]shardLine, 0, len(res.PerShard))
		for _, s := range res.PerShard {
			lines = append(lines, shardLine{
				Shard:       s.Shard,
				Routed:      s.Routed,
				AchievedRPS: s.Achieved,
				Converged:   s.Converged,
				Hashes:      s.Hashes,
				Statuses:    s.Statuses,
			})
		}
		out.ringSummary = &ringSummary{Imbalance: res.Imbalance, PerShard: lines}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "detmt-load: %v\n", err)
		os.Exit(1)
	}
}

func printText(res *server.LoadResult, o server.LoadOptions, kind string) {
	if o.Rate > 0 {
		iq := res.Intent.Quantiles(50, 99, 99.9)
		sq := res.Service.Quantiles(50, 99)
		fmt.Printf("offered   %.0f req/s  achieved %.0f req/s  (%d sent, %d measured)\n",
			res.Offered, res.Achieved, res.Sent, res.Measured)
		fmt.Printf("errors    shed %d, timeouts %d, no-sequencer %d, other %d\n",
			res.Shed, res.Timeouts, res.NoSeqErr, res.Errors)
		fmt.Printf("intent    p50 %s ms  p99 %s ms  p99.9 %s ms  max %s ms  (coordinated-omission corrected)\n",
			metrics.Ms(iq[0]), metrics.Ms(iq[1]), metrics.Ms(iq[2]), metrics.Ms(res.Intent.Max()))
		fmt.Printf("service   p50 %s ms  p99 %s ms\n", metrics.Ms(sq[0]), metrics.Ms(sq[1]))
		if o.SLO > 0 {
			verdict := "MET"
			if !res.SLOMet {
				verdict = "MISSED"
			}
			fmt.Printf("slo       p99 budget %v: %s\n", o.SLO, verdict)
		}
	} else {
		qs := res.Service.Quantiles(50, 95)
		fmt.Printf("requests  %d (%d errors) in %s wall\n", res.Requests, res.Errors, res.Elapsed.Round(time.Millisecond))
		fmt.Printf("errors    no-sequencer retries %d, no-sequencer %d, timeouts %d\n",
			res.Retries, res.NoSeqErr, res.Timeouts)
		fmt.Printf("latency   mean %s ms  p50 %s ms  p95 %s ms  max %s ms\n",
			metrics.Ms(res.Service.Mean()), metrics.Ms(qs[0]),
			metrics.Ms(qs[1]), metrics.Ms(res.Service.Max()))
	}
	switch kind {
	case "cluster":
		for _, st := range res.Statuses {
			fmt.Printf("replica %v  scheduler=%s completed=%d state=%d hash=%016x\n",
				st.ID, st.Scheduler, st.Completed, st.State, st.Hash)
		}
	case "ring":
		for _, s := range res.PerShard {
			fmt.Printf("shard g%d  routed %d  achieved %.0f req/s  converged=%v\n",
				s.Shard, s.Routed, s.Achieved, s.Converged)
			for _, st := range s.Statuses {
				fmt.Printf("  replica %v  completed=%d state=%d hash=%016x\n",
					st.ID, st.Completed, st.State, st.Hash)
			}
		}
		fmt.Printf("imbalance %.3f (max/mean routed per shard; 1.000 = perfectly even)\n", res.Imbalance)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func parseServers(s string) (map[ids.ReplicaID]string, error) {
	out := map[ids.ReplicaID]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("%q is not id=addr", part)
		}
		n, err := strconv.Atoi(kv[0])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%q is not a positive replica id", kv[0])
		}
		if _, dup := out[ids.ReplicaID(n)]; dup {
			return nil, fmt.Errorf("replica id %d listed twice", n)
		}
		out[ids.ReplicaID(n)] = kv[1]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty server list")
	}
	return out, nil
}
