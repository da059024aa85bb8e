package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"fpsping/internal/scenario"
)

// Erlang orders the paper's scenario space uses: the K = 2 and K = 9
// defaults, Figure 3's 15/20/25, and the derived K = 28.
var kMatrix = []int{2, 9, 15, 20, 25, 28}

// Server tick intervals drawn for every workload, as in internal/load's pool.
var ticks = []float64{30, 40, 50, 60}

// Sweep grid and dimensioning bounds of one analyst-walks op.
const (
	walkFrom = 0.05
	walkTo   = 0.90
	walkStep = 0.05
)

var walkBounds = []float64{30, 50}

type opKind uint8

const (
	opRTT   opKind = iota // one /v1/rtt
	opBatch               // one /v1/rtt:batch of batchSize
	opWalk                // one /v1/sweep, then /v1/dimension at each walkBounds
)

func (k opKind) String() string {
	return [...]string{"rtt", "batch", "walk"}[k]
}

const (
	hotPoolSize = 256
	hotZipfSkew = 1.1
	batchSize   = 8
	batchEvery  = 8 // every batchEvery-th routed-hot op is a batch
)

// op is one unit of generated work. pool holds the routed-hot pool index of
// each scenario (nil for fresh scenarios).
type op struct {
	kind opKind
	scs  []scenario.Scenario
	pool []int
}

// stream derives ops deterministically: op(i) depends only on the seed, the
// workload and i, never on which client runs it or when.
type stream interface {
	op(i int) op
	// warmup returns the ops a fresh stack runs before measuring.
	warmup() []op
}

// Stream tags decorrelate the RNG uses of one seed.
const (
	tagPool uint64 = iota + 1
	tagOp
	tagBlock
	tagWarm
)

func rng(seed, tag, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15*tag, i*0xbf58476d1ce4e5b9+tag))
}

// hotStream is routed-hot: Zipf(1.1) draws over a seeded pool of scenarios
// spanning K = 2…28, every batchEvery-th op a batch.
type hotStream struct {
	pool []scenario.Scenario
	cum  []float64 // cumulative Zipf mass over pool ranks
	seed uint64
}

func newHotStream(seed uint64) *hotStream {
	s := &hotStream{seed: seed, pool: make([]scenario.Scenario, hotPoolSize), cum: make([]float64, hotPoolSize)}
	r := rng(seed, tagPool, 0)
	for i := range s.pool {
		sc := scenario.Default()
		sc.ErlangOrder = 2 + r.IntN(27)
		sc.Load = 0.05 + 0.80*r.Float64()
		sc.ServerPacketBytes = float64(100 + r.IntN(150))
		sc.BurstIntervalMs = ticks[r.IntN(len(ticks))]
		s.pool[i] = sc
	}
	sum := 0.0
	for i := range s.cum {
		sum += math.Pow(float64(i+1), -hotZipfSkew)
		s.cum[i] = sum
	}
	for i := range s.cum {
		s.cum[i] /= sum
	}
	return s
}

func (s *hotStream) draw(r *rand.Rand) int {
	return min(sort.SearchFloat64s(s.cum, r.Float64()), len(s.pool)-1)
}

func (s *hotStream) op(i int) op {
	r := rng(s.seed, tagOp, uint64(i))
	n, kind := 1, opRTT
	if i%batchEvery == batchEvery-1 {
		n, kind = batchSize, opBatch
	}
	o := op{kind: kind, scs: make([]scenario.Scenario, n), pool: make([]int, n)}
	for j := range o.scs {
		o.pool[j] = s.draw(r)
		o.scs[j] = s.pool[o.pool[j]]
	}
	return o
}

// warmup is one /v1/rtt per pool scenario: it fills every owner's cache.
func (s *hotStream) warmup() []op {
	ops := make([]op, len(s.pool))
	for i, sc := range s.pool {
		ops[i] = op{kind: opRTT, scs: []scenario.Scenario{sc}, pool: []int{i}}
	}
	return ops
}

// cell returns the i-th cell of a stream over the grid dims: the stream
// walks seeded permutations of the whole grid, one block per permutation,
// so every block-aligned prefix carries the same mix and the per-op cost
// varies less from seed to seed. The result holds one index per dimension.
func cell(seed, tag uint64, i int, dims ...int) []int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	c := rng(seed, tagBlock^tag, uint64(i/n)).Perm(n)[i%n]
	out := make([]int, len(dims))
	for k := len(dims) - 1; k >= 0; k-- {
		out[k], c = c%dims[k], c/dims[k]
	}
	return out
}

// coldLoadBands splits cold-kmatrix's load range [0.05, 0.85] into equal
// bands, one grid dimension: the slowest ops (high order at high load)
// then make up the same share of every run.
const coldLoadBands = 4

// coldStream is cold-kmatrix: a fresh scenario per op over the grid
// kMatrix × ticks × coldLoadBands (see cell). The load is continuous
// within its band, which makes every scenario unique.
type coldStream struct {
	seed uint64
	tag  uint64
}

func (s coldStream) op(i int) op {
	r := rng(s.seed, tagOp^s.tag, uint64(i))
	sc := scenario.Default()
	c := cell(s.seed, s.tag, i, len(kMatrix), len(ticks), coldLoadBands)
	sc.ErlangOrder, sc.BurstIntervalMs = kMatrix[c[0]], ticks[c[1]]
	sc.Load = 0.05 + 0.80*(float64(c[2])+r.Float64())/coldLoadBands
	sc.ServerPacketBytes = float64(100 + r.IntN(150))
	return op{kind: opRTT, scs: []scenario.Scenario{sc}}
}

// warmup is the first 24 ops of a fixed stream: the same set-up work at
// every seed, and no scenario the measured stream can draw.
func (s coldStream) warmup() []op {
	w := coldStream{tag: tagWarm << 8}
	ops := make([]op, len(kMatrix)*len(ticks))
	for i := range ops {
		ops[i] = w.op(i)
	}
	return ops
}

// walkOrders weights analyst-walks 3:1 towards K = 9. The latency median
// then sits inside one order's mode instead of on the gap between the two
// orders' costs, and a K = 9 walk costs a fifth of a K = 20 one, so a run
// holds more ops.
var walkOrders = []int{9, 9, 9, 20}

// walkPacketBytes are the server packet size levels of analyst-walks.
var walkPacketBytes = []float64{120, 200}

// walkStream is analyst-walks: a fresh scenario per op over the grid
// walkOrders × ticks × walkPacketBytes (see cell). A sub-byte jitter on the
// packet size keeps every scenario unique, so no two ops share a sweep
// point.
type walkStream struct {
	seed uint64
	tag  uint64
}

func (s walkStream) op(i int) op {
	r := rng(s.seed, tagOp^s.tag, uint64(i))
	c := cell(s.seed, s.tag, i, len(walkOrders), len(ticks), len(walkPacketBytes))
	sc := scenario.Default()
	sc.ErlangOrder, sc.BurstIntervalMs = walkOrders[c[0]], ticks[c[1]]
	sc.ServerPacketBytes = walkPacketBytes[c[2]] + r.Float64()
	sc.Load = 0.5 // base load; sweeps and bisections override it per point
	return op{kind: opWalk, scs: []scenario.Scenario{sc}}
}

// warmup is the first four ops of a fixed stream, as coldStream.warmup.
func (s walkStream) warmup() []op {
	w := walkStream{tag: tagWarm << 8}
	return []op{w.op(0), w.op(1), w.op(2), w.op(3)}
}

// fingerprint is an op's contribution to an order-independent multiset
// fingerprint: kind plus canonical scenario keys. Contributions are summed,
// so duplicates count and order does not.
func (o op) fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(o.kind.String()))
	for _, sc := range o.scs {
		h.Write([]byte{'|'})
		h.Write([]byte(sc.Canonical()))
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(o.scs)))
	h.Write(b[:])
	return h.Sum64()
}

func newStream(workload string, seed uint64) (stream, error) {
	switch workload {
	case "routed-hot":
		return newHotStream(seed), nil
	case "cold-kmatrix":
		return coldStream{seed: seed}, nil
	case "analyst-walks":
		return walkStream{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want routed-hot, cold-kmatrix or analyst-walks)", workload)
}

// routed reports whether the workload goes through the router to two
// replicas (otherwise it talks to one replica directly).
func routed(workload string) bool { return workload == "routed-hot" }
