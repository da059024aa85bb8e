package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// post sends body to url and returns the status, the two headers a
// daemon's answer is made of, and the body.
func post(t testing.TB, url, body string) (status int, contentType, cache string, data []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get(service.CacheHeader), data
}

// batchBody spells a /v1/rtt:batch request over raw scenario items.
func batchBody(items ...string) string {
	return `{"scenarios":[` + strings.Join(items, ",") + `]}`
}

// TestRouterBatchByteIdenticalToDaemon pins the router's batch splice: the
// merged answer is byte-identical, headers included, to one daemon's
// answer to the same batch, after the same history. The cases cover mixed
// hits and misses, error items, intra-batch duplicates (also spelled
// differently) and batches whose items all belong to one replica.
func TestRouterBatchByteIdenticalToDaemon(t *testing.T) {
	_, rt, front := realCluster(t, 2, PolicyAffinity)
	ref := httptest.NewServer(service.NewServer("127.0.0.1:0", service.NewEngine(2, 256)).Handler())
	t.Cleanup(ref.Close)

	// Items owned by replica 0 and by replica 1, found on the ring.
	var owned [2][]string
	for g := 40; len(owned[0]) < 5 || len(owned[1]) < 5; g++ {
		item := fmt.Sprintf(`{"gamers":%d,"k":%d}`, g, 2+g%20)
		sc, err := scenario.FromJSON([]byte(item))
		if err != nil {
			t.Fatal(err)
		}
		o := rt.Ring().Owner(sc.Canonical())
		owned[o] = append(owned[o], item)
	}
	a, b := owned[0], owned[1]
	steps := []struct {
		name, body      string
		split           bool
		cached, errored int // of the daemon's answer
	}{
		{"all misses across replicas", batchBody(a[0], b[0]), true, 0, 0},
		{"mixed hits and misses", batchBody(a[0], b[1], a[1], b[0]), true, 2, 0},
		{"error items", batchBody(a[0], `{"k":1}`, `{"gamers":100000}`, b[0], `{"q":1}`), true, 2, 3},
		{"intra-batch duplicates", batchBody(a[2], b[2], a[2], `{"load":0.5}`, b[2], `{"load":0.5,"gamers":7}`), true, 3, 0},
		{"single replica, misses", batchBody(a[3], a[4]), false, 0, 0},
		{"single replica, hits and duplicates", batchBody(b[1], b[2], b[1], b[0]), false, 4, 0},
		{"whitespace in items", "{\"scenarios\": [ " + a[0] + " ,\n" + strings.ReplaceAll(b[0], ":", " : ") + " ] }", true, 2, 0},
	}
	for _, st := range steps {
		var res service.BatchResult
		if _, _, _, want := post(t, ref.URL+"/v1/rtt:batch", st.body); json.Unmarshal(want, &res) != nil {
			t.Fatalf("%s: daemon answered %s", st.name, want)
		}
		errored := 0
		for _, item := range res.Results {
			if item.Error != "" {
				errored++
			}
		}
		if res.Cached != st.cached || errored != st.errored {
			t.Errorf("%s: daemon answer has %d cached and %d error items, want %d and %d",
				st.name, res.Cached, errored, st.cached, st.errored)
		}
	}
	// Replay the same history through the router and the daemon.
	ref = httptest.NewServer(service.NewServer("127.0.0.1:0", service.NewEngine(2, 256)).Handler())
	t.Cleanup(ref.Close)
	for _, st := range steps {
		splitsBefore := rt.splits.Load()
		gs, gct, gcache, got := post(t, front.URL+"/v1/rtt:batch", st.body)
		ws, wct, wcache, want := post(t, ref.URL+"/v1/rtt:batch", st.body)
		if gs != ws || gct != wct || gcache != wcache || !bytes.Equal(got, want) {
			t.Errorf("%s: router answered %d %q %q\n%s\ndaemon answered %d %q %q\n%s",
				st.name, gs, gct, gcache, got, ws, wct, wcache, want)
		}
		if split := rt.splits.Load() > splitsBefore; split != st.split {
			t.Errorf("%s: split across replicas = %v, want %v", st.name, split, st.split)
		}
	}
}

// TestRouterTrailingDataFallsThroughToReplica400: a body with trailing data
// yields no routing key, so the router forwards it round-robin and relays
// the replica's authoritative 400, byte-identical to a daemon's.
func TestRouterTrailingDataFallsThroughToReplica400(t *testing.T) {
	_, _, front := realCluster(t, 2, PolicyAffinity)
	ref := httptest.NewServer(service.NewServer("127.0.0.1:0", service.NewEngine(1, 16)).Handler())
	t.Cleanup(ref.Close)
	for _, c := range []struct{ path, body string }{
		{"/v1/rtt", `{"k":9}{"k":20}`},
		{"/v1/rtt", `{"k":9}xyz`},
		{"/v1/sweep", `{"scenario":{"k":9}}{"from":0.1}`},
		{"/v1/dimension", `{"scenario":{"k":9},"bound_ms":40}xyz`},
		{"/v1/rtt:batch", batchBody(`{"k":9}`) + `{"scenarios":[{"k":20}]}`},
		{"/v1/rtt:batch", batchBody(`{"k":9}`, `{"k":20}`) + `xyz`},
	} {
		gs, _, _, got := post(t, front.URL+c.path, c.body)
		ws, _, _, want := post(t, ref.URL+c.path, c.body)
		if gs != http.StatusBadRequest || ws != http.StatusBadRequest || !bytes.Equal(got, want) {
			t.Errorf("POST %s %s: router %d %s, daemon %d %s; want the same 400",
				c.path, c.body, gs, got, ws, want)
		}
	}
}

// TestRouterTimeoutCoversBodyRead: the forwarding timeout must also bound
// reading the replica's body, as http.Client's Timeout did, so a replica
// that stalls mid-body costs one timeout and a failover, not a hung
// request.
func TestRouterTimeoutCoversBodyRead(t *testing.T) {
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"partial":`))
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(release) })
	rt, err := NewRouter(RouterConfig{Replicas: []string{stall.URL}, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	start := time.Now()
	resp, body := get(t, front.URL+"/v1/rtt?gamers=60")
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("stalled body: status %d (%s), want 502", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("stalled body held the request for %v", d)
	}
}

// TestRouterRejectsAnnouncedOversizedReplicaBody: a replica whose
// Content-Length already exceeds the cap fails over like one whose body
// turns out too long while streaming.
func TestRouterRejectsAnnouncedOversizedReplicaBody(t *testing.T) {
	capReplicaBody(t, 4096)
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := strings.Repeat("x", int(maxReplicaBody)+1)
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		io.WriteString(w, body)
	}))
	t.Cleanup(big.Close)
	good := newFakeReplica(t, 1)
	rt, err := NewRouter(RouterConfig{Replicas: []string{big.URL, good.srv.URL}, Policy: PolicyRoundRobin, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	for i := 0; i < 2; i++ { // round-robin: one of the two starts at the oversized replica
		resp, body := get(t, front.URL+"/v1/rtt?gamers=60")
		if resp.StatusCode != http.StatusOK || body != `{"replica":1}` {
			t.Errorf("request %d: status %d body %s, want the healthy replica's answer", i, resp.StatusCode, body)
		}
	}
	if rt.retries.Load() == 0 {
		t.Error("no failover recorded")
	}
}

// BenchmarkRouterRTT measures the routed hit path end to end over loopback:
// client, router, replica, memo hit and back, for a single /v1/rtt and for
// a batch of eight split across two replicas. Allocations are the whole
// process's (client, router and replicas).
func BenchmarkRouterRTT(b *testing.B) {
	engines := make([]string, 2)
	for i := range engines {
		srv := httptest.NewServer(service.NewServer("127.0.0.1:0", service.NewEngine(2, 0)).Handler())
		b.Cleanup(srv.Close)
		engines[i] = srv.URL
	}
	rt, err := NewRouter(RouterConfig{Replicas: engines, Timeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)
	items := make([]string, 8)
	for i := range items {
		items[i] = fmt.Sprintf(`{"gamers":%d,"k":%d,"ps":125,"t":40}`, 60+i, 2+3*i)
	}
	cases := []struct{ name, path, body string }{
		{"hit", "/v1/rtt", items[0]},
		{"batch-hit", "/v1/rtt:batch", batchBody(items...)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			url := front.URL + c.path
			if status, _, _, body := post(b, url, c.body); status != http.StatusOK {
				b.Fatalf("warmup: %d %s", status, body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, _, cache, _ := post(b, url, c.body); status != http.StatusOK || cache != "hit" {
					b.Fatalf("status %d cache %q", status, cache)
				}
			}
		})
	}
}
