package harness

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"detmt/internal/kvapi"
	"detmt/internal/server"
)

// KVFacadeOptions sizes experiment E17, the HTTP facade overhead
// measurement.
type KVFacadeOptions struct {
	// Shards is the deployment width (default 2 — the smallest sharded
	// configuration, so routing is real on both legs).
	Shards int
	// Duration is each rate step's measured window (default 1.5s).
	Duration time.Duration
	// Warmup precedes each measured window (default 300ms).
	Warmup time.Duration
	// StartRate seeds both geometric rate searches (default 500 req/s).
	StartRate float64
	// Keys is the KV key-space size; PGet the read fraction. Both legs
	// draw from the same distribution (defaults 1024, 0.5).
	Keys int
	PGet float64
}

// DefaultKVFacadeOptions returns the experiment defaults.
func DefaultKVFacadeOptions() KVFacadeOptions {
	return KVFacadeOptions{
		Shards:    2,
		Duration:  1500 * time.Millisecond,
		Warmup:    300 * time.Millisecond,
		StartRate: 500,
		Keys:      1024,
		PGet:      0.5,
	}
}

// KVFacade is experiment E17: what does fronting the replicated KV
// object with the stateless HTTP gateway cost? Two rate-ceiling
// searches against identical fresh clusters (detmt-server -kv):
//
//   - direct: the load engine's ring target speaks the wire protocol
//     straight to the shards, drawing KV gets and tokenized puts.
//   - gateway: an in-process kvapi.Gateway serves real HTTP on a
//     loopback socket and the engine walks the same rate ladder, with
//     the same draws, through kvapi.HTTPTarget.
//
// The headline metric is gateway_overhead_pct — the ceiling the facade
// gives up to HTTP framing, JSON bodies, and the extra hop. The
// acceptance bar is <= 30%.
//
// Not part of All(): real processes, real sockets, real seconds.
func KVFacade(o KVFacadeOptions) Result {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.StartRate <= 0 {
		o.StartRate = 500
	}
	if o.Keys <= 0 {
		o.Keys = 1024
	}
	if o.PGet == 0 {
		o.PGet = 0.5
	}
	var b strings.Builder
	metricsOut := map[string]float64{}
	fmt.Fprintf(&b, "HTTP facade overhead, %d shards, one replica per shard, KV object\n(%.0f%% reads over %d keys), SLO p99 <= 100ms:\n\n",
		o.Shards, o.PGet*100, o.Keys)

	printSteps := func(steps []server.CeilingStep) {
		fmt.Fprintf(&b, "%10s %12s %10s %10s %10s\n", "offered", "achieved", "p50-ms", "p99-ms", "sustained")
		for _, st := range steps {
			fmt.Fprintf(&b, "%10.0f %12.0f %10.2f %10.2f %10v\n",
				st.Offered, st.Achieved,
				float64(st.P50)/float64(time.Millisecond),
				float64(st.P99)/float64(time.Millisecond), st.Sustained)
		}
	}

	// -- Direct leg: wire protocol straight to the shards. --
	direct := func() (float64, error) {
		addr, closeAll, err := shardedCluster(o.Shards, "-kv", "-adaptive-tick", "-ring-seed", "42")
		if err != nil {
			return 0, err
		}
		defer closeAll()
		ring, err := server.FetchRing([]string{addr}, 10*time.Second, nil, nil)
		if err != nil {
			return 0, err
		}
		res, err := server.FindCeiling(server.LoadOptions{
			Ring:          &ring,
			Duration:      o.Duration,
			Warmup:        o.Warmup,
			BatchSubmit:   true,
			SLO:           100 * time.Millisecond,
			Seed:          7,
			Draw:          server.KVDraw(o.Keys, o.PGet),
			SettleTimeout: 60 * time.Second,
		}, o.StartRate, 1.25, 8)
		if res == nil {
			return 0, err
		}
		b.WriteString("-- direct (wire protocol) --\n")
		printSteps(res.Steps)
		fmt.Fprintf(&b, "sustained direct ceiling: %.0f req/s\n\n", res.Ceiling)
		return res.Ceiling, nil
	}

	// -- Gateway leg: the same ladder through a real HTTP hop. --
	gateway := func() (float64, error) {
		addr, closeAll, err := shardedCluster(o.Shards, "-kv", "-adaptive-tick", "-ring-seed", "42")
		if err != nil {
			return 0, err
		}
		defer closeAll()
		ring, err := server.FetchRing([]string{addr}, 10*time.Second, nil, nil)
		if err != nil {
			return 0, err
		}
		gw, err := kvapi.New(kvapi.Options{Ring: ring, Clients: 32})
		if err != nil {
			return 0, err
		}
		defer gw.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		hs := &http.Server{Handler: gw}
		go hs.Serve(ln)
		defer hs.Close()
		target := kvapi.NewHTTPTarget("http://" + ln.Addr().String())
		defer target.Close()
		res, err := server.FindCeiling(server.LoadOptions{
			Target:   target,
			Duration: o.Duration,
			Warmup:   o.Warmup,
			SLO:      100 * time.Millisecond,
			Seed:     7,
			Draw:     server.KVDraw(o.Keys, o.PGet),
		}, o.StartRate, 1.25, 8)
		if res == nil {
			return 0, err
		}
		b.WriteString("-- gateway (HTTP facade) --\n")
		printSteps(res.Steps)
		fmt.Fprintf(&b, "sustained gateway ceiling: %.0f req/s\n\n", res.Ceiling)
		return res.Ceiling, nil
	}

	// Each leg runs twice and keeps the better ceiling: on a small box a
	// single ~100ms scheduling or GC stall inside one 1.5s window fails
	// that step's p99 SLO and truncates the whole search, and one stall
	// in four minutes is noise, not a ceiling.
	best := func(name string, leg func() (float64, error)) float64 {
		var top float64
		for attempt := 0; attempt < 2; attempt++ {
			c, err := leg()
			if err != nil {
				fmt.Fprintf(&b, "%s leg attempt %d FAILED: %v\n", name, attempt, err)
			}
			if c > top {
				top = c
			}
		}
		return top
	}
	dc := best("direct", direct)
	gc := best("gateway", gateway)
	if dc > 0 {
		metricsOut["direct_ceiling_rps"] = dc
	}
	if gc > 0 {
		metricsOut["gateway_ceiling_rps"] = gc
	}
	if dc > 0 && gc > 0 {
		overhead := (dc - gc) / dc * 100
		metricsOut["gateway_overhead_pct"] = overhead
		fmt.Fprintf(&b, "facade overhead: %.1f%% of the direct ceiling (bar: <= 30%%)\n", overhead)
	}
	b.WriteString("\nThe gateway is stateless: every request still routes through the\nsame ring and pays the same sequencing cost, so the gap is purely\nHTTP framing, JSON, and one extra loopback hop per request.\n")
	return Result{
		ID:      "kv_facade",
		Title:   "E17: HTTP/KV facade ceiling vs direct wire protocol",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}
