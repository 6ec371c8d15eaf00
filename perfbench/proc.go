package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"detmt/internal/ids"
)

// proc is one child process started by the benchmark.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// startProc launches bin with args, logging to dir/name.log.
func startProc(dir, bin, name string, args ...string) (*proc, error) {
	lf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// stop sends SIGTERM, waits up to grace, then kills.
func (p *proc) stop(grace time.Duration) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.kill()
	}
}

// cpuTicks returns the process's utime+stime in clock ticks.
func cpuTicksOf(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	t, ok := parseStatTicks(string(b))
	if !ok {
		return 0, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	return t, nil
}

func (p *proc) cpuTicks() int64 {
	t, _ := cpuTicksOf(strconv.Itoa(p.pid()))
	return t
}

// rssMB returns the resident set size in MiB.
func (p *proc) rssMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(p.pid()) + "/status")
	if err != nil {
		return 0
	}
	kb, _ := parseRSSKB(string(b))
	return float64(kb) / 1024
}

func selfCPUTicks() int64 {
	t, _ := cpuTicksOf("self")
	return t
}

// freePortBlock finds n consecutive free loopback ports (the sharded
// server derives tenant ports as base+k, so they must be adjacent). The
// listeners are closed before the servers bind, a race that is harmless
// on an otherwise idle loopback.
func freePortBlock(n int) (int, error) {
	for attempt := 0; attempt < 64; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		base := ln.Addr().(*net.TCPAddr).Port
		ok := base+n < 65000
		held := []net.Listener{ln}
		for k := 1; ok && k < n; k++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+k))
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
			return base, nil
		}
	}
	return 0, fmt.Errorf("no block of %d free ports", n)
}

// waitListening dials addr until it accepts or the deadline passes.
func waitListening(addr string, deadline time.Time) error {
	for {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not start listening", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// cluster is a set of detmt-server processes over loopback, one per
// member; with shards > 0 each process hosts one tenant per shard at
// base port + k.
type cluster struct {
	bin   string
	dir   string
	args  []string                 // shared server flags
	data  bool                     // each member gets dir/data<id>
	addrs map[ids.ReplicaID]string // base address per member
	procs map[ids.ReplicaID]*proc
	// lost is the CPU of killed processes, so a member's ticks stay
	// monotonic across a restart.
	lost map[ids.ReplicaID]int64
}

// bootCluster starts n members with the shared args (and, with data, a
// data directory each) and waits until every tenant port accepts
// connections.
func bootCluster(bin, dir string, n, shards int, data bool, args ...string) (*cluster, error) {
	width := shards
	if width == 0 {
		width = 1
	}
	c := &cluster{bin: bin, dir: dir, args: args, data: data,
		addrs: map[ids.ReplicaID]string{}, procs: map[ids.ReplicaID]*proc{}, lost: map[ids.ReplicaID]int64{}}
	for i := 1; i <= n; i++ {
		base, err := freePortBlock(width)
		if err != nil {
			return nil, err
		}
		c.addrs[ids.ReplicaID(i)] = fmt.Sprintf("127.0.0.1:%d", base)
	}
	for _, id := range c.members() {
		if err := c.start(id); err != nil {
			c.close()
			return nil, err
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, id := range c.members() {
		for k := 0; k < width; k++ {
			if err := waitListening(c.tenantAddr(id, k), deadline); err != nil {
				c.close()
				return nil, err
			}
		}
	}
	return c, nil
}

func (c *cluster) members() []ids.ReplicaID {
	out := make([]ids.ReplicaID, 0, len(c.addrs))
	for id := range c.addrs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tenantAddr is member id's address for shard k.
func (c *cluster) tenantAddr(id ids.ReplicaID, k int) string {
	host, port, _ := net.SplitHostPort(c.addrs[id])
	p, _ := strconv.Atoi(port)
	return fmt.Sprintf("%s:%d", host, p+k)
}

// start launches member id with the shared flags plus extra.
func (c *cluster) start(id ids.ReplicaID, extra ...string) error {
	var peers []string
	for _, o := range c.members() {
		if o != id {
			peers = append(peers, fmt.Sprintf("%d=%s", o, c.addrs[o]))
		}
	}
	args := []string{"-id", strconv.Itoa(int(id)), "-listen", c.addrs[id], "-peers", strings.Join(peers, ",")}
	args = append(args, c.args...)
	if c.data {
		args = append(args, "-data", filepath.Join(c.dir, fmt.Sprintf("data%d", id)))
	}
	args = append(args, extra...)
	p, err := startProc(c.dir, c.bin, fmt.Sprintf("server%d", id), args...)
	if err != nil {
		return err
	}
	c.procs[id] = p
	return nil
}

// kill SIGKILLs member id, keeping the CPU it used.
func (c *cluster) kill(id ids.ReplicaID) {
	p := c.procs[id]
	c.lost[id] += p.cpuTicks()
	p.kill()
}

// cpuTicks returns each member's CPU ticks, its killed processes
// included.
func (c *cluster) cpuTicks() map[ids.ReplicaID]int64 {
	out := map[ids.ReplicaID]int64{}
	for id, p := range c.procs {
		out[id] = c.lost[id] + p.cpuTicks()
	}
	return out
}

// maxRSSMB is the largest member RSS.
func (c *cluster) maxRSSMB() float64 {
	var m float64
	for _, p := range c.procs {
		if r := p.rssMB(); r > m {
			m = r
		}
	}
	return m
}

// close stops every member; SIGTERM first so each logs its final
// completed count and hash.
func (c *cluster) close() {
	for _, p := range c.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range c.procs {
		p.stop(2 * time.Second)
	}
}
