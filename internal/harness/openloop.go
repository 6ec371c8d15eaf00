package harness

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"detmt/internal/ids"
	"detmt/internal/server"
	"detmt/internal/workload"
)

// OpenLoopOptions sizes the open-loop throughput experiments. The
// windows are deliberately short — each cell of the matrix pays
// warmup+duration+drain of wall time on a real cluster.
type OpenLoopOptions struct {
	// Duration is each run's measured window (default 1.5s).
	Duration time.Duration
	// Warmup precedes each measured window (default 300ms).
	Warmup time.Duration
	// Rates is the offered-rate grid for the tick/group-commit matrix
	// (default 500, 1500, 3000 req/s).
	Rates []float64
}

// DefaultOpenLoopOptions returns the experiment defaults.
func DefaultOpenLoopOptions() OpenLoopOptions {
	return OpenLoopOptions{
		Duration: 1500 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
		Rates:    []float64{500, 1500, 3000},
	}
}

// openLoopWorkload is the light request body used by the throughput
// experiments: the point is the sequencer hot path, not the
// interpreter. It must stay expressible through detmt-server's
// -iterations/-mutexes flags — the servers run as real processes.
func openLoopWorkload() workload.Fig1Config {
	wl := workload.DefaultFig1()
	wl.Iterations = 1
	wl.Mutexes = 16
	return wl
}

// The throughput experiments measure REAL deployments: each replica is
// its own detmt-server OS process (in-process clusters share the Go
// runtime with the generator, which flatters closed-loop latency by
// several milliseconds per hop). The binary is built once per
// detmt-bench run.
var (
	buildServerOnce sync.Once
	builtServerBin  string
	buildServerErr  error
)

func serverBinary() (string, error) {
	buildServerOnce.Do(func() {
		dir, err := os.MkdirTemp("", "detmt-openloop-")
		if err != nil {
			buildServerErr = err
			return
		}
		bin := filepath.Join(dir, "detmt-server")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/detmt-server")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildServerErr = fmt.Errorf("building detmt-server (run from the repo root): %v\n%s", err, out)
			return
		}
		builtServerBin = bin
	})
	return builtServerBin, buildServerErr
}

// openLoopCluster spawns a 3-member MAT cluster of detmt-server
// processes with the given extra flags and returns the address map plus
// a closer that kills them.
func openLoopCluster(extra ...string) (map[ids.ReplicaID]string, func(), error) {
	bin, err := serverBinary()
	if err != nil {
		return nil, nil, err
	}
	const n = 3
	wl := openLoopWorkload()
	// Reserve three loopback ports. The listener is closed before the
	// server binds it — a small race, tolerable for an experiment that
	// is only run on demand.
	addrs := map[ids.ReplicaID]string{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		addrs[ids.ReplicaID(i+1)] = ln.Addr().String()
		ln.Close()
	}
	procs := make([]*exec.Cmd, 0, n)
	closeAll := func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}
	for i := 1; i <= n; i++ {
		peers := make([]string, 0, n-1)
		for j := 1; j <= n; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j, addrs[ids.ReplicaID(j)]))
			}
		}
		args := []string{
			"-id", strconv.Itoa(i),
			"-listen", addrs[ids.ReplicaID(i)],
			"-peers", strings.Join(peers, ","),
			"-scheduler", "MAT",
			"-iterations", strconv.Itoa(wl.Iterations),
			"-mutexes", strconv.Itoa(wl.Mutexes),
		}
		args = append(args, extra...)
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			closeAll()
			return nil, nil, err
		}
		procs = append(procs, cmd)
	}
	// Wait until every member accepts connections.
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range addrs {
		for {
			c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				closeAll()
				return nil, nil, fmt.Errorf("server on %s did not come up", addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return addrs, closeAll, nil
}

// OpenLoop is experiment E15: the sequencer throughput ceiling. It
// first measures the closed-loop baseline (clients wait for replies, so
// concurrency — not the sequencer — bounds the rate), then walks an
// offered-rate grid through the four hot-path configurations (fixed vs
// adaptive tick x group commit on/off) under open-loop, coordinated-
// omission-corrected load. The sustained-rate search is the companion
// 'ceiling' experiment.
//
// Not part of All(): it spawns real detmt-server processes and burns
// wall-clock time pacing them, so it runs only when asked explicitly.
func OpenLoop(o OpenLoopOptions) Result {
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{500, 1500, 3000}
	}
	var b strings.Builder
	metricsOut := map[string]float64{}
	wl := openLoopWorkload()

	// Closed-loop baselines. The pure closed loop is ONE client with one
	// outstanding request: its rate is 1/round-trip, so it measures
	// service latency, never capacity — the self-throttling that hides
	// the ceiling. A handful of lock-step clients (detmt-load's default
	// 4) is reported alongside for context; it is still concurrency-
	// bound, just with a larger numerator. Each run gets a fresh cluster
	// (replica duplicate suppression keys on client id + counter, so
	// reusing ids against a warm cluster would suppress the second run).
	closed := func(clients, requests int, seed uint64) (float64, float64, error) {
		addrs, closeAll, err := openLoopCluster()
		if err != nil {
			return 0, 0, err
		}
		defer closeAll()
		res, err := server.RunLoad(server.LoadOptions{
			Servers: addrs, Clients: clients, RequestsPerClient: requests,
			Seed: seed, Workload: wl, Timeout: 120 * time.Second,
		})
		if err != nil {
			return 0, 0, err
		}
		q := res.Service.Quantiles(50)
		return res.Achieved, float64(q[0]) / float64(time.Millisecond), nil
	}
	if rps, p50, err := closed(1, 400, 1); err != nil {
		fmt.Fprintf(&b, "closed-loop baseline FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "Closed-loop baseline (1 client, one outstanding request): %.0f req/s, p50 %.2f ms\n", rps, p50)
		metricsOut["closedloop_rps"] = rps
	}
	if rps, p50, err := closed(4, 250, 2); err != nil {
		fmt.Fprintf(&b, "closed-loop, 4 lock-step clients FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "Closed-loop, 4 lock-step clients: %.0f req/s, p50 %.2f ms\n\n", rps, p50)
		metricsOut["closedloop4_rps"] = rps
	}

	// The matrix: offered vs achieved vs p99 intent latency.
	configs := []struct {
		key   string
		flags []string
	}{
		{"fixed+plain", []string{"-no-group-commit"}},
		{"fixed+group", nil},
		{"adaptive+plain", []string{"-adaptive-tick", "-no-group-commit"}},
		{"adaptive+group", []string{"-adaptive-tick"}},
	}
	fmt.Fprintf(&b, "%-16s %10s %12s %10s %10s %8s\n", "config", "offered", "achieved", "p50-ms", "p99-ms", "shed")
	for _, cfg := range configs {
		for _, rate := range o.Rates {
			// Fresh cluster per cell: residual backlog from a saturating
			// rate would otherwise bleed into the next cell's warmup and
			// delay its convergence check.
			addrs, closeAll, err := openLoopCluster(cfg.flags...)
			if err != nil {
				fmt.Fprintf(&b, "%-16s %10.0f FAILED: %v\n", cfg.key, rate, err)
				continue
			}
			res, err := server.RunLoad(server.LoadOptions{
				Servers:       addrs,
				Rate:          rate,
				Duration:      o.Duration,
				Warmup:        o.Warmup,
				BatchSubmit:   true,
				Seed:          7,
				Workload:      wl,
				SettleTimeout: 60 * time.Second,
			})
			closeAll()
			if res == nil {
				fmt.Fprintf(&b, "%-16s %10.0f FAILED: %v\n", cfg.key, rate, err)
				continue
			}
			q := res.Intent.Quantiles(50, 99)
			note := ""
			if err != nil {
				note = "  (did not settle)"
			}
			fmt.Fprintf(&b, "%-16s %10.0f %12.0f %10.2f %10.2f %8d%s\n",
				cfg.key, rate, res.Achieved,
				float64(q[0])/float64(time.Millisecond),
				float64(q[1])/float64(time.Millisecond), res.Shed, note)
			mkey := strings.NewReplacer("+", "_").Replace(cfg.key)
			metricsOut[fmt.Sprintf("%s_%.0f_achieved_rps", mkey, rate)] = res.Achieved
			metricsOut[fmt.Sprintf("%s_%.0f_p99_ms", mkey, rate)] = float64(q[1]) / float64(time.Millisecond)
			if rate == o.Rates[0] {
				metricsOut[fmt.Sprintf("%s_lowrate_p50_ms", mkey)] = float64(q[0]) / float64(time.Millisecond)
			}
		}
	}

	b.WriteString("\nThe closed-loop baseline is concurrency-bound: each client waits a\nfull round-trip per request. Open-loop arrivals pipeline through the\nsequencing window, so the ceiling is set by sequencer drain + wire\ncost — which group commit and adaptive ticks push up (see the\n'ceiling' experiment for the sustained-rate search).\n")
	return Result{
		ID:      "openloop",
		Title:   "E15: open-loop sequencer throughput ceiling (fixed/adaptive tick x group commit, real detmt-server processes)",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}

// Ceiling runs only the ceiling search — the regression probe the bench
// gate compares against the committed baseline.
func Ceiling(o OpenLoopOptions) Result {
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	var b strings.Builder
	metricsOut := map[string]float64{}
	b.WriteString("Ceiling search (adaptive tick + group commit + pipelined apply, SLO p99 <= 100ms):\n")
	addrs, closeAll, err := openLoopCluster("-adaptive-tick")
	if err != nil {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	} else {
		defer closeAll()
		res, err := server.FindCeiling(server.LoadOptions{
			Servers:       addrs,
			Duration:      o.Duration,
			Warmup:        o.Warmup,
			BatchSubmit:   true,
			SLO:           100 * time.Millisecond,
			Seed:          7,
			Workload:      openLoopWorkload(),
			SettleTimeout: 60 * time.Second,
		}, 1000, 1.25, 8)
		if res == nil {
			fmt.Fprintf(&b, "FAILED: %v\n", err)
		} else {
			fmt.Fprintf(&b, "%10s %12s %10s %10s %10s\n", "offered", "achieved", "p50-ms", "p99-ms", "sustained")
			for _, st := range res.Steps {
				fmt.Fprintf(&b, "%10.0f %12.0f %10.2f %10.2f %10v\n",
					st.Offered, st.Achieved,
					float64(st.P50)/float64(time.Millisecond),
					float64(st.P99)/float64(time.Millisecond), st.Sustained)
			}
			fmt.Fprintf(&b, "sustained ceiling: %.0f req/s\n", res.Ceiling)
			if res.Ceiling > 0 {
				metricsOut["ceiling_rps"] = res.Ceiling
			}
		}
	}
	return Result{
		ID:      "ceiling",
		Title:   "Sequencer throughput ceiling (real detmt-server processes)",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}
