package kvapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"detmt/internal/lang"
	"detmt/internal/server"
	"detmt/internal/workload"
)

// httpOp is one facade operation.
type httpOp struct {
	method string // http verb
	url    string
	body   []byte
}

// opGen expresses drawn KV requests (server.KVDraw) as facade
// operations against the gateway at base: gets, and puts carrying the
// draw's token as their idempotency token.
type opGen struct {
	base string
}

func (g opGen) op(r server.Request) (httpOp, error) {
	switch {
	case r.Method == workload.KVGet && len(r.Args) == 1:
		return httpOp{method: http.MethodGet, url: fmt.Sprintf("%s/kv/%v", g.base, r.Args[0])}, nil
	case r.Method == workload.KVPut && len(r.Args) == 3:
		return httpOp{
			method: http.MethodPut,
			url:    fmt.Sprintf("%s/kv/%v?token=load-%v", g.base, r.Args[0], r.Args[2]),
			body:   []byte(fmt.Sprintf(`{"value":%v}`, r.Args[1])),
		}, nil
	}
	return httpOp{}, fmt.Errorf("httpload: the facade cannot express %s%v", r.Method, r.Args)
}

// doOp performs one facade request. 2xx and 404 (GET on an absent key)
// are successes; anything else is an error.
func doOp(cl *http.Client, op httpOp) error {
	var rd io.Reader
	if op.body != nil {
		rd = bytes.NewReader(op.body)
	}
	req, err := http.NewRequest(op.method, op.url, rd)
	if err != nil {
		return err
	}
	if op.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 || resp.StatusCode == http.StatusNotFound {
		return nil
	}
	return fmt.Errorf("%s %s: HTTP %d", op.method, op.url, resp.StatusCode)
}

// HTTPTarget is the load engine's target for a detmt-gateway facade
// (server.RunLoad with server.KVDraw): every request is one HTTP call.
// The facade routes and hides the replicas, so to the engine it is one
// group with nothing to settle.
type HTTPTarget struct {
	gen opGen
	cl  *http.Client
}

// NewHTTPTarget targets the gateway at url (e.g. "http://127.0.0.1:8080").
func NewHTTPTarget(url string) *HTTPTarget {
	return &HTTPTarget{
		gen: opGen{base: url},
		cl: &http.Client{
			// Above the gateway's own 30s retry deadline, so ITS verdict
			// wins.
			Timeout: 35 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

// Close releases the idle connections.
func (t *HTTPTarget) Close() { t.cl.CloseIdleConnections() }

func (t *HTTPTarget) Groups() int { return 1 }

func (t *HTTPTarget) Route(uint64) int { return 0 }

// Submit returns handles whose Wait performs the call: HTTP is
// synchronous, so the engine's reply waiter carries the request.
func (t *HTTPTarget) Submit(_, _ int, reqs []server.Request) []server.Pending {
	out := make([]server.Pending, len(reqs))
	for i, r := range reqs {
		op, err := t.gen.op(r)
		out[i] = httpPending{cl: t.cl, op: op, err: err}
	}
	return out
}

func (t *HTTPTarget) Settle([]int, time.Time) ([]server.ShardSummary, error) { return nil, nil }

type httpPending struct {
	cl  *http.Client
	op  httpOp
	err error
}

func (p httpPending) Wait() (lang.Value, time.Duration, error) {
	if p.err != nil {
		return nil, 0, p.err
	}
	begin := time.Now()
	err := doOp(p.cl, p.op)
	return nil, time.Since(begin), err
}
