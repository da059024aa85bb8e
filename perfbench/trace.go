package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpsping/internal/cluster"
	"fpsping/internal/core"
	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
	"fpsping/internal/runner"
	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// reqHeader carries the benchmark's request id ("op.request") on traced
// requests. The router does not forward it, so a replica span behind the
// router is tied to its router span by time containment (one traced client
// runs at a time) and by the answering replica.
const reqHeader = "X-Bench-Req"

// span is one timed interval of a traced run. HTTP spans come from the
// benchmark's wrapping handlers; every other span times a direct call into
// a module's public function on the same request's scenario.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`            // op index (-1: not yet attributed)
	Req     string `json:"req,omitempty"` // request id, "op.request"
	Parent  string `json:"parent,omitempty"`
	Replica string `json:"replica,omitempty"`
	Path    string `json:"path,omitempty"`
	Start   int64  `json:"start_ns"` // since the tracer started
	End     int64  `json:"end_ns"`
	// Reps is the number of back-to-back calls the span covers (0 or 1:
	// one); dur reports the time per call.
	Reps int `json:"reps,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e3 / float64(max(s.Reps, 1)) } // µs

// tracer keeps the spans of one traced run in memory.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	sp   []span
	laws map[int]string   // op -> shape of the compiled delay law
	ops  map[int]tracedOp // op -> what the probe pass replays
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.reset()
	return t
}

// reset drops everything recorded so far (the traced stack's warmup).
func (t *tracer) reset() {
	t.mu.Lock()
	t.sp, t.laws, t.ops = nil, map[int]string{}, map[int]tracedOp{}
	t.mu.Unlock()
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.sp = append(t.sp, s)
	t.mu.Unlock()
}

// wrap records a span around every request h serves: a replica's span when
// rep is set, the router's otherwise.
func (t *tracer) wrap(rep *replica, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if r.URL.Path == "/healthz" {
			return // the router's health loop, not a traced request
		}
		s := span{Name: "router", Op: -1, Req: r.Header.Get(reqHeader), Path: r.URL.Path,
			Replica: w.Header().Get(cluster.ReplicaHeader), Start: t.ns(start), End: t.ns(end)}
		if rep != nil {
			s.Name, s.Replica = "replica", rep.url
		}
		t.add(s)
	})
}

// tracedOp is what the probe pass needs to replay one traced op.
type tracedOp struct {
	o       op
	reqs    []request
	replies []reply
}

// record keeps op i of the traced HTTP pass: its client spans now, the op
// itself for the probe pass (which re-encodes results, so reply bodies are
// dropped).
func (t *tracer) record(i int, o op, reqs []request, replies []reply) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for j := range replies {
		replies[j].body = nil
	}
	t.ops[i] = tracedOp{o, reqs, replies}
	for j, rp := range replies {
		t.sp = append(t.sp, span{Name: "client", Op: i, Req: reqID(i, j), Parent: "op " + strconv.Itoa(i),
			Path: reqs[j].path, Replica: rp.replica, Start: t.ns(rp.start), End: t.ns(rp.end)})
	}
}

// probeAll times the direct calls of the recorded ops after the HTTP pass,
// so that their compute does not disturb the traced requests. The first
// loop replays each op's requests (decode, engine call, encode) back to
// back, as the replicas saw them; the second times the compute layers on
// the ops the first loop covered. Each loop stops at its deadline after at
// least one op. It returns the number of ops with compute probes.
func (t *tracer) probeAll(ctx context.Context, st *stack, replayBy, computeBy time.Time) (int, error) {
	t.mu.Lock()
	idx := make([]int, 0, len(t.ops))
	for i := range t.ops {
		idx = append(idx, i)
	}
	t.mu.Unlock()
	sort.Ints(idx)
	var done []int
	for _, i := range idx {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if len(done) > 0 && time.Now().After(replayBy) {
			break
		}
		p := &prober{t: t, i: i}
		err := p.replay(st, t.ops[i])
		if errors.Is(err, errEvicted) {
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("op %d: %w", i, err)
		}
		t.commit(p)
		done = append(done, i)
	}
	n := 0
	for _, i := range done {
		if ctx.Err() != nil {
			return n, ctx.Err()
		}
		if n > 0 && time.Now().After(computeBy) {
			break
		}
		if t.ops[i].o.kind == opBatch {
			continue
		}
		p := &prober{t: t, i: i}
		if err := p.probeCompute(reqID(i, 0), t.ops[i].o); err != nil {
			return n, fmt.Errorf("op %d: %w", i, err)
		}
		t.commit(p)
		n++
	}
	return n, nil
}

func (t *tracer) commit(p *prober) {
	t.mu.Lock()
	t.sp = append(t.sp, p.spans...)
	if p.law != "" {
		t.laws[p.i] = p.law
	}
	t.mu.Unlock()
}

// errEvicted marks a probe whose replayed cache hit missed: the entry was
// evicted since the request, so its timings would measure a compute.
var errEvicted = errors.New("memo entry evicted since the request")

// cheapReps is how many back-to-back calls time a microsecond-scale layer;
// the span's duration is divided by it.
const cheapReps = 8

// prober collects the direct-call spans of one op.
type prober struct {
	t     *tracer
	i     int
	spans []span
	law   string
}

// timed runs fn reps times as one span named name of request req.
func (p *prober) timed(req, name string, reps int, fn func() error) error {
	start := time.Now()
	for k := 0; k < reps; k++ {
		if err := fn(); err != nil {
			if errors.Is(err, errEvicted) {
				return err
			}
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	p.spans = append(p.spans, span{Name: name, Op: p.i, Req: req, Parent: "client " + req, Reps: reps,
		Start: p.t.ns(start), End: p.t.ns(time.Now())})
	return nil
}

func reqID(i, j int) string { return strconv.Itoa(i) + "." + strconv.Itoa(j) }

// endpoint calls the engine method behind request j of op o. With hit set
// it insists on a cache hit.
func endpoint(eng *service.Engine, o op, j int, hit bool) (v any, err error) {
	sc := o.scs[0]
	var shared bool
	switch {
	case o.kind == opRTT:
		v, shared, err = eng.RTT(sc)
	case j == 0:
		v, shared, err = eng.Sweep(sc, walkFrom, walkTo, walkStep)
	default:
		v, shared, err = eng.Dimension(sc, walkBounds[j-1])
	}
	if err == nil && hit && !shared {
		err = errEvicted
	}
	return v, err
}

// replay times the direct calls behind one traced op's requests: decode,
// engine call and encode per request, then validate, key and a memo hit
// on the op's scenario. Batch ops keep their HTTP spans only: the router
// fans a batch out to both replicas at once, so its replica spans overlap
// and cannot be split into layers.
func (p *prober) replay(st *stack, to tracedOp) error {
	o, i := to.o, p.i
	if o.kind == opBatch {
		return nil
	}
	sc := o.scs[0]
	// The engine call behind each request: a hit replays on the replica
	// that answered, a miss on a fresh engine that sees the op's requests
	// in the same order the replica did.
	var scratch *service.Engine
	for j, req := range to.reqs {
		id, rp := reqID(i, j), to.replies[j]
		if err := p.timed(id, "scenario.decode", cheapReps, func() error { return decodeRequest(req) }); err != nil {
			return err
		}
		eng, reps, hit := st.byURL(rp.replica).engine, cheapReps, rp.cache == "hit"
		if !hit {
			if scratch == nil {
				scratch = service.NewEngine(runner.DefaultWorkers(), service.DefaultCacheSize)
			}
			eng, reps = scratch, 1
		}
		var v any
		if err := p.timed(id, "engine", reps, func() (err error) { v, err = endpoint(eng, o, j, hit); return err }); err != nil {
			return err
		}
		if err := p.timed(id, "service.encode", cheapReps, func() (err error) { _, err = json.Marshal(v); return err }); err != nil {
			return err
		}
	}
	id := reqID(i, 0)
	live := st.byURL(to.replies[0].replica).engine
	steps := []struct {
		name string
		fn   func() error
	}{
		{"scenario.validate", sc.Validate},
		{"scenario.key", func() error { _ = sc.Canonical(); return nil }},
		{"memo.hit", func() error { _, err := endpoint(live, o, 0, true); return err }},
	}
	for _, s := range steps {
		if err := p.timed(id, s.name, cheapReps, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// probeCompute times the compute layers on the op's scenario: the queueing
// solves and factors, compile, inversion and decomposition, the inversion
// at every order of kMatrix, and a load walk through core.LoadPath against
// cold points on the same loads.
func (p *prober) probeCompute(id string, o op) error {
	sc := o.scs[0]
	m := sc.Model()
	up, err := m.Upstream()
	if err != nil {
		return err
	}
	down, err := m.Downstream()
	if err != nil {
		return err
	}
	var sol *queueing.DEK1Solution
	if err := p.timed(id, "queueing.solve", 1, func() (err error) { sol, err = down.Solve(); return err }); err != nil {
		return err
	}
	if err := p.timed(id, "queueing.factor", 1, func() error {
		if _, err := up.WaitMixPaper(); err != nil {
			return err
		}
		if _, err := sol.WaitMix(); err != nil {
			return err
		}
		_, err := down.PositionMixUniform()
		return err
	}); err != nil {
		return err
	}
	var cm *core.CompiledModel
	if err := p.timed(id, "core.compile", 1, func() (err error) { cm, err = m.Compile(); return err }); err != nil {
		return err
	}
	if err := p.timed(id, "mgf.invert", 1, func() (err error) { _, err = cm.RTTQuantile(); return err }); err != nil {
		return err
	}
	if err := p.timed(id, "core.decompose", 1, func() (err error) { _, err = cm.Decompose(); return err }); err != nil {
		return err
	}
	p.law = lawShape(cm.Law().Law())
	for _, k := range kMatrix {
		sk := sc
		sk.ErlangOrder = k
		ck, err := sk.Model().Compile()
		if err != nil {
			return err
		}
		if err := p.timed(id, "mgf.invert.k"+strconv.Itoa(k), 1, func() (err error) { _, err = ck.RTTQuantile(); return err }); err != nil {
			return err
		}
	}
	return p.probeWalk(id, o, m)
}

// probeWalk walks the op's loads through one LoadPath and evaluates the
// same loads cold. The first path point has no predecessor, so only the
// continued points are compared. A walk op walks its sweep grid; an rtt op
// walks three points from its own load, upward unless that leaves the
// stable range.
func (p *prober) probeWalk(id string, o op, m core.Model) error {
	var loads []float64
	if o.kind == opWalk {
		loads = core.LoadGrid(walkFrom, walkTo, walkStep)
	} else {
		rho, step := m.DownlinkLoad(), 0.05
		if rho+2*step >= 0.9 {
			step = -step
		}
		loads = []float64{rho, rho + step, rho + 2*step}
	}
	walk := m.NewLoadPath()
	for k, rho := range loads {
		start := time.Now()
		pt, err := walk.Point(rho)
		end := time.Now()
		if err != nil {
			break // the sweep's asymptote
		}
		if k == 0 {
			continue
		}
		p.spans = append(p.spans, span{Name: "core.loadpath_point", Op: p.i, Req: id, Parent: "client " + id,
			Start: p.t.ns(start), End: p.t.ns(end)})
		var cold float64
		if err := p.timed(id, "core.cold_point", 1, func() error {
			cm, err := m.WithDownlinkLoad(rho).Compile()
			if err == nil {
				cold, err = cm.RTTQuantile()
			}
			return err
		}); err != nil {
			return err
		}
		if !same(cold, pt.RTT) {
			return fmt.Errorf("load %g: LoadPath point %v differs from cold %v", rho, pt.RTT, cold)
		}
	}
	return nil
}

// lawShape names the representation Compile chose for the delay law.
func lawShape(l mgf.Law) string {
	s, ok := l.(mgf.Sum)
	switch {
	case !ok:
		return "mix"
	case isSum(s.B):
		return "nested"
	default:
		return "sum"
	}
}

func isSum(l mgf.Law) bool { _, ok := l.(mgf.Sum); return ok }

// decodeRequest decodes a request body the way the daemon's handler does.
func decodeRequest(req request) error {
	if req.path == "/v1/rtt" {
		_, err := scenario.FromJSON(req.body)
		return err
	}
	var wrapper struct {
		Scenario json.RawMessage `json:"scenario"`
	}
	dec := json.NewDecoder(bytes.NewReader(req.body))
	if err := dec.Decode(&wrapper); err != nil {
		return err
	}
	_, err := scenario.FromJSON(wrapper.Scenario)
	return err
}

// link ties every HTTP span to its request: a router span and a directly
// addressed replica span carry the request id; a replica span behind the
// router gets the id of the router span that contains it in time (one
// traced client runs at a time, so router spans do not overlap), provided
// the router names that replica as the answer or, for a split batch, names
// none.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var routers []span
	for _, s := range t.sp {
		if s.Name == "router" {
			routers = append(routers, s)
		}
	}
	sort.Slice(routers, func(a, b int) bool { return routers[a].Start < routers[b].Start })
	for k := range t.sp {
		s := &t.sp[k]
		switch {
		case s.Name == "router" || (s.Name == "replica" && s.Req != ""):
			s.Parent = "client " + s.Req
		case s.Name == "replica":
			n := sort.Search(len(routers), func(a int) bool { return routers[a].Start > s.Start }) - 1
			if n >= 0 {
				r := routers[n]
				if s.End <= r.End && (r.Replica == "" || r.Replica == s.Replica) {
					s.Req, s.Parent = r.Req, "router "+r.Req
				}
			}
		}
		if s.Op < 0 && s.Req != "" {
			s.Op, _ = strconv.Atoi(s.Req[:strings.IndexByte(s.Req, '.')])
		}
	}
}

// layerStats turns a traced run's spans into per-layer medians and the
// ledger. A request answered by one replica splits into client transport,
// router self time, decode, engine call and encode; what is left of the
// replica span is unattributed.
func (t *tracer) layerStats() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var clients []span
	routers := map[string]span{}
	replicas := map[string][]span{}
	direct := map[string]map[string]float64{} // req -> name -> µs per call
	perName := map[string][]float64{}
	perOp := map[int]map[string]float64{}
	for _, s := range t.sp {
		switch s.Name {
		case "client":
			clients = append(clients, s)
		case "router":
			routers[s.Req] = s
		case "replica":
			replicas[s.Req] = append(replicas[s.Req], s)
		default:
			if direct[s.Req] == nil {
				direct[s.Req] = map[string]float64{}
			}
			direct[s.Req][s.Name] += s.dur()
			perName[s.Name] = append(perName[s.Name], s.dur())
			if perOp[s.Op] == nil {
				perOp[s.Op] = map[string]float64{}
			}
			perOp[s.Op][s.Name] += s.dur()
		}
	}
	var transport, clusterSelf, handlerSelf []float64
	var e2e, leaves float64
	for _, c := range clients {
		inner := replicas[c.Req]
		outer, ok := routers[c.Req]
		switch {
		case ok:
			clusterSelf = append(clusterSelf, outer.dur()-covered(inner))
		case len(inner) == 1:
			outer = inner[0]
			clusterSelf = append(clusterSelf, 0)
		default:
			continue
		}
		transport = append(transport, c.dur()-outer.dur())
		d, ok := direct[c.Req]
		if !ok || len(inner) != 1 {
			continue // not probed, or a batch: no per-layer split
		}
		handlerSelf = append(handlerSelf, inner[0].dur()-d["engine"])
		e2e += c.dur()
		leaves += c.dur() - inner[0].dur() + d["scenario.decode"] + d["engine"] + d["service.encode"]
	}
	out := map[string]float64{
		"client.transport_us_p50":     median(transport),
		"cluster.self_us_p50":         median(clusterSelf),
		"service.handler_self_us_p50": median(handlerSelf),
	}
	for name, key := range map[string]string{
		"service.encode":      "service.encode_us_p50",
		"scenario.decode":     "scenario.decode_us_p50",
		"scenario.validate":   "scenario.validate_us_p50",
		"scenario.key":        "scenario.key_us_p50",
		"queueing.solve":      "queueing.solve_us_p50",
		"queueing.factor":     "queueing.factor_us_p50",
		"core.compile":        "core.compile_us_p50",
		"core.decompose":      "core.decompose_us_p50",
		"core.loadpath_point": "core.loadpath_point_us_p50",
		"core.cold_point":     "core.cold_point_us_p50",
		"mgf.invert":          "mgf.invert_us_p50",
	} {
		out[key] = median(perName[name])
	}
	for _, k := range kMatrix {
		out["mgf.invert_us.k"+strconv.Itoa(k)] = median(perName["mgf.invert.k"+strconv.Itoa(k)])
	}
	var combine, lookup []float64
	for _, d := range perOp {
		if _, ok := d["memo.hit"]; ok {
			lookup = append(lookup, d["memo.hit"]-d["scenario.validate"]-d["scenario.key"])
		}
		if _, ok := d["core.compile"]; ok {
			combine = append(combine, d["core.compile"]-d["queueing.solve"]-d["queueing.factor"])
		}
	}
	out["core.combine_us_p50"] = median(combine)
	out["memo.lookup_us_p50"] = median(lookup)
	var sum, nested float64
	for _, shape := range t.laws {
		switch shape {
		case "sum":
			sum++
		case "nested":
			nested++
		}
	}
	if n := float64(len(t.laws)); n > 0 {
		out["core.law_sum_share"], out["core.law_nested_share"] = sum/n, nested/n
	}
	if e2e > 0 {
		out["trace.unattributed_share"] = 1 - leaves/e2e
	}
	return out
}

// covered is the length of the union of the spans' intervals, in µs.
func covered(ss []span) float64 {
	sort.Slice(ss, func(a, b int) bool { return ss[a].Start < ss[b].Start })
	var total, end int64 = 0, math.MinInt64
	for _, s := range ss {
		start := max(s.Start, end)
		if s.End > start {
			total += s.End - start
		}
		end = max(end, s.End)
	}
	return float64(total) / 1e3
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.sp {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
