package main

import (
	"context"
	"runtime"
	"testing"
	"time"
)

var workloads = []string{"routed-hot", "cold-kmatrix", "analyst-walks"}

// opsPerWorkload keeps the count-bounded runs short: walk ops cost a sweep
// and two bisections each.
var opsPerWorkload = map[string]int{"routed-hot": 96, "cold-kmatrix": 48, "analyst-walks": 8}

// issued runs the first n ops of a workload's stream on a fresh stack with
// the given number of clients and returns the fingerprint of the op
// multiset the clients actually sent.
func issued(t *testing.T, workload string, seed uint64, clients, n int) uint64 {
	t.Helper()
	str, err := newStream(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	st, exp, err := setup(context.Background(), config{workload: workload, clients: clients}, str, nil, &addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	out, err := run(context.Background(), st, str, exp, phase{clients: clients, limit: n}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.firstErr != nil || len(out.records) != n {
		t.Fatalf("%s: %d of %d ops, first error %v", workload, len(out.records), n, out.firstErr)
	}
	return out.fingerprint
}

// The op multiset depends on the seed alone: the same at one and two
// clients, different at another seed, and equal to the stream's own
// definition.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		n := opsPerWorkload[w]
		one, two := issued(t, w, 7, 1, n), issued(t, w, 7, 2, n)
		if one != two {
			t.Errorf("%s: fingerprint %x at 1 client, %x at 2", w, one, two)
		}
		if other := issued(t, w, 8, 2, n); other == one {
			t.Errorf("%s: seeds 7 and 8 issue the same multiset", w)
		}
		str, _ := newStream(w, 7)
		var want uint64
		for i := 0; i < n; i++ {
			want += str.op(i).fingerprint()
		}
		if one != want {
			t.Errorf("%s: issued fingerprint %x, stream defines %x", w, one, want)
		}
	}
}

// A run leaves nothing behind: bench itself fails on a goroutine left
// running or a port left bound, on the normal path, the traced path, and
// a run cancelled midway as SIGINT/SIGTERM cancel it.
func TestLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 0.4, trace: trace, clients: 2, dir: t.TempDir()}
			res, _, err := bench(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d", w, trace, res.Correct, res.Failed)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		_, _, err := bench(ctx, config{workload: w, seed: 3, seconds: 30, clients: 2, dir: t.TempDir()})
		cancel()
		if err == nil {
			t.Errorf("%s: cancelled run returned no error", w)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines after the runs, baseline %d", w, n, baseline)
		}
	}
}

// A failed answer check fails the op, and the stack still shuts down
// clean.
func TestFailedCheckReleases(t *testing.T) {
	baseline := runtime.NumGoroutine()
	str := newHotStream(5)
	var addrs []string
	st, exp, err := setup(context.Background(), config{workload: "routed-hot", clients: 2}, str, nil, &addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exp.answers {
		exp.answers[i] = []byte("{}\n")
	}
	out, err := run(context.Background(), st, str, exp, phase{clients: 2, limit: 16}, false)
	st.close()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed() != 16 {
		t.Errorf("%d of 16 ops failed against wrong answers", out.failed())
	}
	if err := checkReleased(baseline, addrs); err != nil {
		t.Error(err)
	}
}
