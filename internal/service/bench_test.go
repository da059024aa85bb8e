package service

import (
	"fmt"
	"testing"

	"fpsping/internal/scenario"
)

// BenchmarkServiceRTT is the daemon's hot path: one /v1/rtt evaluation,
// cold (full MGF inversion plus quantile bisections) versus cached (memo
// lookup). The cached/cold ratio is the whole case for the cache; CI's
// benchmark gate watches both. The cold case builds its engine before the
// timer starts (construction preallocates the memo maps, which would
// otherwise dominate) and asks a fresh scenario each iteration.
func BenchmarkServiceRTT(b *testing.B) {
	sc := scenario.Default()
	sc.Load = 0.5
	b.Run("cold", func(b *testing.B) {
		e := NewEngine(1, 2*b.N+16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh := sc
			fresh.Load += freshStep * float64(i)
			if _, cached, err := e.RTT(fresh); err != nil || cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := NewEngine(1, 0)
		if _, _, err := e.RTT(sc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, cached, err := e.RTT(sc); err != nil || !cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
	})
}

// BenchmarkServiceBatch evaluates a 16-scenario batch (a load grid, all
// distinct) cold at several worker counts: the fan-out speedup of
// /v1/rtt:batch. Each cold iteration shifts the grid to fresh scenarios on
// an engine built before the timer starts. The warm case measures the
// all-hits path.
func BenchmarkServiceBatch(b *testing.B) {
	scs := make([]scenario.Scenario, 16)
	for i := range scs {
		sc := scenario.Default()
		sc.Load = 0.05 + 0.05*float64(i)
		scs[i] = sc
	}
	for _, jobs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("cold/jobs=%d", jobs), func(b *testing.B) {
			e := NewEngine(jobs, 2*len(scs)*b.N+16)
			fresh := make([]scenario.Scenario, len(scs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, sc := range scs {
					fresh[j] = sc
					fresh[j].Load += freshStep * float64(i)
				}
				res := e.Batch(fresh)
				for _, item := range res.Results {
					if item.Error != "" {
						b.Fatal(item.Error)
					}
				}
				if res.Cached != 0 {
					b.Fatalf("%d cold items cached", res.Cached)
				}
			}
		})
	}
	b.Run("warm", func(b *testing.B) {
		e := NewEngine(4, 0)
		e.Batch(scs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := e.Batch(scs); res.Cached != len(scs) {
				b.Fatalf("only %d/%d cached", res.Cached, len(scs))
			}
		}
	})
}

// freshStep shifts a cold benchmark's load per iteration: small enough to
// keep the cost of the scenario, large enough to give it a new memo key.
const freshStep = 1e-7

// BenchmarkEngineRTTParallelHit is the contention case the sharded memo
// cache exists for: every goroutine hammers the warm cache with hits spread
// over a pool of scenarios, so the only cost is the lookup itself — and, on
// a single-stripe cache, the queue in front of its mutex. Run with
// -cpu 1,4,8 the sharded default should hold its per-op cost as cores rise
// where one global lock degrades; CI's paired benchgate run watches exactly
// that.
func BenchmarkEngineRTTParallelHit(b *testing.B) {
	scs := make([]scenario.Scenario, 16)
	for i := range scs {
		sc := scenario.Default()
		sc.Load = 0.05 + 0.05*float64(i)
		scs[i] = sc
	}
	bench := func(b *testing.B, opts ...Option) {
		e := NewEngine(4, 0, opts...)
		for _, sc := range scs {
			if _, _, err := e.RTT(sc); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				if _, cached, err := e.RTT(scs[i%len(scs)]); err != nil || !cached {
					b.Fatalf("cached=%v err=%v", cached, err)
				}
			}
		})
	}
	b.Run("sharded", func(b *testing.B) { bench(b) })
	b.Run("shards=1", func(b *testing.B) { bench(b, WithShards(1)) })
}

// BenchmarkServiceSweep measures a cached-vs-cold /v1/sweep over the
// paper's 18-point load grid.
func BenchmarkServiceSweep(b *testing.B) {
	sc := scenario.Default()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(4, 0)
			if _, _, err := e.Sweep(sc, 0.05, 0.90, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := NewEngine(4, 0)
		if _, _, err := e.Sweep(sc, 0.05, 0.90, 0.05); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, cached, err := e.Sweep(sc, 0.05, 0.90, 0.05); err != nil || !cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
	})
}
