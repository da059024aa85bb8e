package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fpsping/internal/cluster"
	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// request is one HTTP call of an op.
type request struct {
	path string
	body []byte
}

func requestsOf(o op) []request {
	switch o.kind {
	case opBatch:
		raws := make([]json.RawMessage, len(o.scs))
		for i, sc := range o.scs {
			raws[i] = sc.JSON()
		}
		body, _ := json.Marshal(service.BatchRequest{Scenarios: raws}) // raw scenario JSON always marshals
		return []request{{"/v1/rtt:batch", body}}
	case opWalk:
		sc := o.scs[0].JSON()
		sweep, _ := json.Marshal(service.SweepRequest{Scenario: sc, From: walkFrom, To: walkTo, Step: walkStep})
		reqs := []request{{"/v1/sweep", sweep}}
		for _, b := range walkBounds {
			dim, _ := json.Marshal(service.DimensionRequest{Scenario: sc, BoundMs: b})
			reqs = append(reqs, request{"/v1/dimension", dim})
		}
		return reqs
	default:
		return []request{{"/v1/rtt", o.scs[0].JSON()}}
	}
}

// reply is what a client saw for one request.
type reply struct {
	status  int
	cache   string // X-Fpsping-Cache
	replica string // answering replica: X-Fpsping-Replica, or the only one
	body    []byte
	start   time.Time
	end     time.Time
}

// opRecord is one completed op of a measured phase.
type opRecord struct {
	i      int
	lat    time.Duration
	failed bool
}

// expect holds what a workload's answers are checked against.
type expect struct {
	workload string
	// warming is set while routed-hot's warmup fills answers.
	warming bool
	// routed-hot: every pool scenario's warmup answer and ring owner.
	answers [][]byte
	owners  []string
}

// sample is an answer kept for the direct-evaluation check.
type sample struct {
	sc    scenario.Scenario
	rtt   *service.RTTResult
	sweep *service.SweepResult
	dims  []service.DimensionResult
}

// phase is one closed-loop pass: clients goroutines pull op indices from a
// shared counter until the deadline or the limit, whichever comes first.
type phase struct {
	clients  int
	deadline time.Time // zero: no deadline
	limit    int       // 0: no limit
	ops      []op      // when set, the pass runs exactly these instead of the stream
	sampleAt func(i int) bool
	tr       *tracer
}

// outcome aggregates a phase.
type outcome struct {
	records     []opRecord
	elapsed     time.Duration
	fingerprint uint64
	owned       int // requests answered by their ring owner
	keyed       int // requests whose owner is defined (single-scenario)
	samples     map[int]sample
	firstErr    error
}

func (o *outcome) failed() int {
	n := 0
	for _, r := range o.records {
		if r.failed {
			n++
		}
	}
	return n
}

// client is one closed-loop load generator.
type client struct {
	st  *stack
	exp *expect
	buf bytes.Buffer
}

func (c *client) do(ctx context.Context, req request, reqID string) (reply, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.st.target+req.path, bytes.NewReader(req.body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		hr.Header.Set(reqHeader, reqID)
	}
	rp := reply{start: time.Now()}
	resp, err := c.st.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rp.end = time.Now()
	if err != nil {
		return reply{}, fmt.Errorf("%s: reading body: %w", req.path, err)
	}
	rp.status, rp.cache, rp.body = resp.StatusCode, resp.Header.Get(service.CacheHeader), c.buf.Bytes()
	if rp.replica = resp.Header.Get(cluster.ReplicaHeader); rp.replica == "" && len(c.st.replicas) == 1 {
		rp.replica = c.st.replicas[0].url
	}
	if rp.status != http.StatusOK {
		return rp, fmt.Errorf("%s: status %d: %s", req.path, rp.status, bytes.TrimSpace(rp.body))
	}
	return rp, nil
}

// check validates one reply of op o against the workload's expectations
// and, when keep is set, decodes it into s for the direct-evaluation check.
// owned reports whether a single-scenario request was answered by its ring
// owner.
func (c *client) check(o op, j int, rp reply, keep bool, s *sample) (owned bool, err error) {
	hot := c.exp.workload == "routed-hot"
	want := "miss"
	if hot {
		want = "hit"
	}
	if c.exp.warming {
		want = "" // the cache fills now
	}
	if want != "" && rp.cache != want {
		return false, fmt.Errorf("op %s: X-Fpsping-Cache %q, want %q", o.kind, rp.cache, want)
	}
	switch {
	case c.exp.owners != nil && len(o.pool) == 1:
		owned = rp.replica == c.exp.owners[o.pool[0]]
	case len(o.scs) == 1:
		owned = rp.replica == c.st.replicas[c.st.ring.Owner(o.scs[0].Canonical())].url
	}
	switch o.kind {
	case opBatch:
		var res struct {
			Results []struct {
				Result json.RawMessage `json:"result"`
				Error  string          `json:"error"`
			} `json:"results"`
			Cached int `json:"cached"`
		}
		if err := json.Unmarshal(rp.body, &res); err != nil {
			return false, fmt.Errorf("batch: decode: %w", err)
		}
		if len(res.Results) != len(o.scs) || res.Cached != len(o.scs) {
			return false, fmt.Errorf("batch: %d results, %d cached, want %d of each", len(res.Results), res.Cached, len(o.scs))
		}
		for k, it := range res.Results {
			if !bytes.Equal(it.Result, bytes.TrimSuffix(c.exp.answers[o.pool[k]], []byte("\n"))) {
				return false, fmt.Errorf("batch item %d differs from its warmup answer (error %q)", k, it.Error)
			}
		}
	case opRTT:
		if hot && !c.exp.warming {
			if !bytes.Equal(rp.body, c.exp.answers[o.pool[0]]) {
				return false, fmt.Errorf("rtt answer differs from its warmup answer")
			}
			return owned, nil
		}
		var res service.RTTResult
		if err := json.Unmarshal(rp.body, &res); err != nil {
			return false, fmt.Errorf("rtt: decode: %w", err)
		}
		if keep {
			s.rtt = &res
		}
	case opWalk:
		if j == 0 {
			var res service.SweepResult
			if err := json.Unmarshal(rp.body, &res); err != nil {
				return false, fmt.Errorf("sweep: decode: %w", err)
			}
			if len(res.Points) == 0 {
				return false, fmt.Errorf("sweep: no points")
			}
			if keep {
				s.sweep = &res
			}
			break
		}
		var res service.DimensionResult
		if err := json.Unmarshal(rp.body, &res); err != nil {
			return false, fmt.Errorf("dimension: decode: %w", err)
		}
		if keep {
			s.dims = append(s.dims, res)
		}
	}
	return owned, nil
}

// exec sends op o's requests in order and checks each reply, stopping at
// the first failure. Reply bodies are copied out of the client's buffer
// when keepBodies is set. owned counts the requests their ring owner
// answered among the keyed ones (single-scenario requests).
func (c *client) exec(ctx context.Context, i int, o op, reqs []request, keep, traced, keepBodies bool) (replies []reply, s sample, owned, keyed int, err error) {
	s.sc = o.scs[0]
	for j, req := range reqs {
		var id string
		if traced {
			id = reqID(i, j)
		}
		rp, err := c.do(ctx, req, id)
		if err != nil {
			return replies, s, owned, keyed, err
		}
		own, err := c.check(o, j, rp, keep, &s)
		if err != nil {
			return replies, s, owned, keyed, err
		}
		if len(o.scs) == 1 {
			keyed++
			if own {
				owned++
			}
		}
		if keepBodies {
			rp.body = bytes.Clone(rp.body)
		}
		replies = append(replies, rp)
	}
	return replies, s, owned, keyed, nil
}

// run executes one phase on the stack. A failed op is recorded, not
// fatal; ctx cancellation stops the clients and is returned.
func run(ctx context.Context, st *stack, str stream, exp *expect, ph phase, fingerprint bool) (*outcome, error) {
	var next atomic.Int64
	out := &outcome{samples: make(map[int]sample)}
	var mu sync.Mutex // guards out and exp.answers while warming
	var wg sync.WaitGroup
	limit := ph.limit
	if ph.ops != nil {
		limit = len(ph.ops)
	}
	start := time.Now()
	for w := 0; w < ph.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{st: st, exp: exp}
			var part outcome // this client's share, merged at the end
			part.samples = make(map[int]sample)
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (!ph.deadline.IsZero() && time.Now().After(ph.deadline)) {
					break
				}
				var o op
				if ph.ops != nil {
					o = ph.ops[i]
				} else {
					o = str.op(i)
				}
				if fingerprint {
					part.fingerprint += o.fingerprint()
				}
				keep := ph.sampleAt != nil && ph.sampleAt(i)
				reqs := requestsOf(o)
				t0 := time.Now()
				replies, s, owned, keyed, err := c.exec(ctx, i, o, reqs, keep, ph.tr != nil, exp.warming)
				part.owned += owned
				part.keyed += keyed
				lat := time.Since(t0)
				if err != nil {
					if part.firstErr == nil {
						part.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
					part.records = append(part.records, opRecord{i: i, lat: lat, failed: true})
					continue
				}
				// Client-side latency: request sent to last body byte,
				// summed over the op's requests (the checks excluded).
				lat = 0
				for _, rp := range replies {
					lat += rp.end.Sub(rp.start)
				}
				part.records = append(part.records, opRecord{i: i, lat: lat})
				if keep {
					part.samples[i] = s
				}
				if exp.warming {
					mu.Lock()
					exp.answers[o.pool[0]] = replies[0].body
					mu.Unlock()
				}
				if ph.tr != nil {
					ph.tr.record(i, o, reqs, replies)
				}
			}
			mu.Lock()
			out.records = append(out.records, part.records...)
			out.fingerprint += part.fingerprint
			out.owned += part.owned
			out.keyed += part.keyed
			for i, s := range part.samples {
				out.samples[i] = s
			}
			if out.firstErr == nil {
				out.firstErr = part.firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out, ctx.Err()
}

// seal ends routed-hot's warmup: every pool scenario must have its answer,
// and each gets its ring owner.
func (e *expect) seal(st *stack, pool []scenario.Scenario) error {
	e.warming = false
	e.owners = make([]string, len(pool))
	for i, sc := range pool {
		if e.answers[i] == nil {
			return fmt.Errorf("pool scenario %d has no warmup answer", i)
		}
		e.owners[i] = st.replicas[st.ring.Owner(sc.Canonical())].url
	}
	return nil
}
