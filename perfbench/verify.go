package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"fpsping/internal/core"
	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// Sample sizes of the direct-evaluation check per run.
const (
	rttSamples  = 24
	walkSamples = 3
)

// verify runs the checks of an untraced run: no failed op, the cache
// behaviour the workload promises, and a seeded sample of answers equal to
// the bits of a direct evaluation.
func verify(cfg config, st *stack, exp *expect, str stream, out *outcome, before, after engineTotals) (bool, []string) {
	var fails []string
	if out.firstErr != nil {
		fails = append(fails, fmt.Sprintf("%d failed ops, first: %v", out.failed(), out.firstErr))
	}
	if cfg.workload == "cold-kmatrix" && after.hits != before.hits {
		fails = append(fails, fmt.Sprintf("cold-kmatrix saw %d cache hits, want 0", after.hits-before.hits))
	}
	if cfg.workload == "routed-hot" && after.misses != before.misses {
		fails = append(fails, fmt.Sprintf("routed-hot saw %d cache misses, want 0", after.misses-before.misses))
	}
	checked := 0
	if hs, ok := str.(*hotStream); ok {
		// Every measured answer equals its warmup answer byte for byte, so
		// checking the warmup answers checks them all.
		for _, i := range seededPerm(cfg.seed, len(hs.pool))[:rttSamples] {
			var got service.RTTResult
			err := json.Unmarshal(exp.answers[i], &got)
			if err == nil {
				err = checkRTT(hs.pool[i], got)
			}
			if err != nil {
				fails = append(fails, fmt.Sprintf("pool scenario %d: %v", i, err))
			}
			checked++
		}
	} else {
		idx := make([]int, 0, len(out.samples))
		for i := range out.samples {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			s := out.samples[i]
			var err error
			switch {
			case s.rtt != nil && checked < rttSamples:
				err = checkRTT(s.sc, *s.rtt)
			case s.sweep != nil && checked < walkSamples:
				err = checkWalk(s.sc, *s.sweep, s.dims)
			default:
				continue
			}
			if err != nil {
				fails = append(fails, fmt.Sprintf("op %d: %v", i, err))
			}
			checked++
		}
	}
	notes := []string{fmt.Sprintf("direct-evaluation check: %d sampled answers", checked)}
	if checked == 0 {
		fails = append(fails, "no sampled answer to check")
	}
	for _, f := range fails {
		notes = append(notes, "FAILED: "+f)
	}
	return len(fails) == 0, notes
}

// checkRTT compares an /v1/rtt answer with sc.Model().Compile() →
// Decompose(), bit for bit.
func checkRTT(sc scenario.Scenario, got service.RTTResult) error {
	cm, err := sc.Model().Compile()
	if err != nil {
		return err
	}
	c, err := cm.Decompose()
	if err != nil {
		return err
	}
	want := service.ComponentsMs{
		Serialization: 1000 * c.Serialization,
		Fixed:         1000 * c.Fixed,
		Upstream:      1000 * c.Upstream,
		BurstWait:     1000 * c.BurstWait,
		Position:      1000 * c.Position,
	}
	if !same(got.QuantileMs, 1000*c.Total) || got.Components != want {
		return fmt.Errorf("answer %v / %+v, direct evaluation %v / %+v",
			got.QuantileMs, got.Components, 1000*c.Total, want)
	}
	return nil
}

// checkWalk compares a sweep with cold evaluations at each of its loads,
// and each dimensioning answer with a direct Model.MaxLoad.
func checkWalk(sc scenario.Scenario, sweep service.SweepResult, dims []service.DimensionResult) error {
	m := sc.Model()
	grid := core.LoadGrid(walkFrom, walkTo, walkStep)
	for k, p := range sweep.Points {
		if k >= len(grid) || !same(p.Load, grid[k]) {
			return fmt.Errorf("sweep point %d at load %v, want %v", k, p.Load, grid[k])
		}
		cm, err := m.WithDownlinkLoad(p.Load).Compile()
		if err != nil {
			return err
		}
		q, err := cm.RTTQuantile()
		if err != nil {
			return err
		}
		if !same(p.RTTMs, 1000*q) {
			return fmt.Errorf("sweep load %v: %v ms, direct %v ms", p.Load, p.RTTMs, 1000*q)
		}
	}
	if len(dims) != len(walkBounds) {
		return fmt.Errorf("%d dimension answers, want %d", len(dims), len(walkBounds))
	}
	for k, d := range dims {
		want, err := m.MaxLoad(walkBounds[k] / 1000)
		if err != nil {
			return err
		}
		if !same(d.MaxDownlinkLoad, want.MaxDownlinkLoad) || d.MaxGamers != want.MaxGamers ||
			!same(d.RTTAtMaxMs, 1000*want.RTTAtMax) {
			return fmt.Errorf("dimension %v ms: %+v, direct %+v", walkBounds[k], d, want)
		}
	}
	return nil
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// seededPerm is a seed-determined permutation of [0, n).
func seededPerm(seed uint64, n int) []int {
	return rng(seed, tagPool, 1).Perm(n)
}
