package scenario

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fpsping/internal/core"
)

// checkParsed holds the invariants every successfully parsed scenario must
// satisfy, whatever bytes produced it:
//
//  1. Canonical never panics and is self-consistent (same scenario, same
//     key), so a hostile query parameter cannot corrupt the daemon's cache
//     keyspace.
//  2. A scenario that validates survives the JSON round trip exactly:
//     parse → encode → parse is the identity, and the canonical key — what
//     the daemon's memo cache is keyed on — is stable across the trip.
func checkParsed(t *testing.T, sc Scenario) {
	t.Helper()
	key := sc.Canonical()
	if key == "" {
		t.Fatal("empty canonical key")
	}
	if again := sc.Canonical(); again != key {
		t.Fatalf("canonical key unstable: %q then %q", key, again)
	}
	if err := sc.Validate(); err != nil {
		return // invalid scenarios only need a stable key, not a round trip
	}
	// Validate must have rejected every non-finite float: JSON() would
	// otherwise fail on them.
	for _, f := range (&sc).fields() {
		if f.flt != nil && (math.IsNaN(*f.flt) || math.IsInf(*f.flt, 0)) {
			t.Fatalf("Validate accepted non-finite parameter %q = %g", f.name, *f.flt)
		}
	}
	back, err := FromJSON(sc.JSON())
	if err != nil {
		t.Fatalf("re-parsing own JSON %s: %v", sc.JSON(), err)
	}
	if back != sc {
		t.Fatalf("JSON round trip changed the scenario:\n%+v\n%+v", sc, back)
	}
	if back.Canonical() != key {
		t.Fatalf("JSON round trip changed the canonical key:\n%q\n%q", key, back.Canonical())
	}
}

// FuzzFromQuery fuzzes the URL-query surface of the daemon (GET /v1/rtt?...):
// arbitrary query strings must never panic, and whatever parses must have a
// stable canonical key and JSON round trip.
func FuzzFromQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"gamers=80&ps=125&t=40",
		"load=0.5",
		"load=0.5&gamers=200",
		"d=0&q=0.99999",
		"k=9&q=0.5&fixed=2.5",
		"gamers=1e308&ps=1e-308",
		"gamers=NaN",
		"fixed=Inf",
		"load=-1",
		"t=0x1p-3",
		"gamers=80&gamers=40",
		"rup=128&rdown=1024&c=5000",
		"pc=80.5&ps=124.999999999999",
		"q=0&k=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, err := url.ParseQuery(raw)
		if err != nil {
			t.Skip()
		}
		sc, err := FromQuery(values)
		if err != nil {
			return
		}
		checkParsed(t, sc)
	})
}

// FuzzFromJSON fuzzes the JSON surface of the daemon (POST bodies and batch
// items) with the same invariants, and differentially: FromJSON's
// reflection-free fast path must give exactly the Scenario (bit for bit,
// -0 included) or exactly the error text of the encoding/json reference
// decoder.
func FuzzFromJSON(f *testing.F) {
	for _, seed := range jsonSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := FromJSON(data)
		ref, refErr := fromJSONReflect(data)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("FromJSON(%q): error %v, reference decoder %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !sameBits(sc, ref) {
			t.Fatalf("FromJSON(%q) = %+v, reference decoder %+v", data, sc, ref)
		}
		checkParsed(t, sc)
	})
}

// jsonSeeds are FuzzFromJSON's in-code seeds: the flat wire form, each
// fallback trigger (case-folded keys, escapes, null, strings, nesting,
// non-JSON numbers, out-of-range numbers, trailing data) and malformed
// input.
var jsonSeeds = []string{
	`{}`,
	` { } `,
	`{"gamers":80,"ps":125,"t":40,"k":9}`,
	`{"load":0.5}`,
	`{"load":0.5,"gamers":200}`,
	`{"d":0,"q":0.99999}`,
	`{"q":0,"k":2}`,
	`{"fixed":2.5,"pc":80.5}`,
	`{"gamers":1e308,"ps":1e-308}`,
	`{"gamers":-80}`,
	`{"gamers":-0,"k":-0}`,
	`{"k":-1}`,
	`{"load":100}`,
	`{"gamers":80`,
	`[1,2,3]`,
	`{"gamer":80}`,
	`{"Gamers":80}`,
	`{"g\u0061mers":80}`,
	`{"gamers":null}`,
	`{"gamers":"80"}`,
	`{"gamers":{"n":80}}`,
	`{"gamers":0x50}`,
	`{"gamers":080}`,
	`{"gamers":.5}`,
	`{"gamers":1e400}`,
	`{"t":4e-324}`,
	`{"k":9.0}`,
	`{"k":1e1}`,
	`{"k":99999999999999999999}`,
	`{"k":9,"k":20}`,
	`{"k":9,}`,
	"{\"k\" :\t9 ,\n\"q\":\r0.5}\n",
	`{"k":9}{"k":20}`,
	`{"k":9}xyz`,
	`{"k":9} `,
	``,
}

// sameBits reports whether two scenarios are equal bit for bit (== would
// equate -0 and 0).
func sameBits(a, b Scenario) bool {
	fa, fb := (&a).fields(), (&b).fields()
	for i := range fa {
		if fa[i].num != nil {
			if *fa[i].num != *fb[i].num {
				return false
			}
		} else if math.Float64bits(*fa[i].flt) != math.Float64bits(*fb[i].flt) {
			return false
		}
	}
	return true
}

// TestSlotMatchesFields pins the allocation-free name lookup behind Set and
// the JSON fast path to the field table, and both to the JSON tags: every
// parameter resolves to the same field under all three.
func TestSlotMatchesFields(t *testing.T) {
	var s Scenario
	fields := (&s).fields()
	typ := reflect.TypeOf(s)
	if len(fields) != typ.NumField() {
		t.Fatalf("%d table rows for %d struct fields", len(fields), typ.NumField())
	}
	for i, f := range fields {
		flt, num := s.slot(f.name)
		if flt != f.flt || num != f.num {
			t.Errorf("slot(%q) does not resolve to the table's field", f.name)
		}
		if tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); tag != f.name {
			t.Errorf("field %d: JSON tag %q, table name %q", i, tag, f.name)
		}
	}
	if flt, num := s.slot("nope"); flt != nil || num != nil {
		t.Error("unknown name resolved")
	}
}

// TestValidateNamesEveryNonFiniteField sets each float parameter in turn to
// NaN and ±Inf: Validate must reject it and name that parameter, which
// pins the direct finiteness check to the field table.
func TestValidateNamesEveryNonFiniteField(t *testing.T) {
	for _, f := range (&Scenario{}).fields() {
		if f.flt == nil {
			continue
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := Default()
			if err := s.Set(f.name, strconv.FormatFloat(bad, 'g', -1, 64)); err != nil {
				t.Fatal(err)
			}
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(f.name)) {
				t.Errorf("%s = %g: Validate error %v does not name the parameter", f.name, bad, err)
			}
		}
	}
}

// TestFromJSONRejectsTrailingData: a decoder that stops after the first
// value would answer {"k":9}{"k":20} as K = 9; only whitespace may follow
// the object.
func TestFromJSONRejectsTrailingData(t *testing.T) {
	for _, in := range []string{`{"k":9}{"k":20}`, `{"k":9}xyz`, `{"k":9} 1`, `{"Gamers":80}]`, `{} {}`} {
		if sc, err := FromJSON([]byte(in)); err == nil {
			t.Errorf("FromJSON(%s) accepted trailing data: %+v", in, sc)
		} else if !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("FromJSON(%s): error %v does not name the trailing data", in, err)
		}
	}
	for _, in := range []string{"{\"k\":9} \t\r\n", "{\"K\":9}\n"} {
		if sc, err := FromJSON([]byte(in)); err != nil || sc.ErlangOrder != 9 {
			t.Errorf("FromJSON(%q) = %+v, %v; want K = 9", in, sc, err)
		}
	}
}

// canonicalFprintf is the canonical key as it was first written, with
// fmt.Fprintf: the reference AppendCanonical must match byte for byte.
func canonicalFprintf(s Scenario) string {
	m := s.Model()
	if m.ClientInterval == 0 {
		m.ClientInterval = m.BurstInterval
	}
	if m.Quantile == 0 {
		m.Quantile = core.DefaultQuantile
	}
	vals := []float64{
		m.Gamers, m.ClientPacketBytes, m.ServerPacketBytes,
		m.BurstInterval, m.ClientInterval,
		m.UplinkAccessRate, m.DownlinkAccessRate, m.AggregateRate,
		m.Quantile, m.FixedDelay,
	}
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%016x|", math.Float64bits(v))
	}
	fmt.Fprintf(&b, "k%d", m.ErlangOrder)
	return b.String()
}

// corpusScenarios parses every scenario the fuzz corpus holds: the in-code
// JSON seeds and the committed files of both fuzz targets.
func corpusScenarios(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	add := func(sc Scenario, err error) {
		if err == nil {
			out = append(out, sc)
		}
	}
	for _, seed := range jsonSeeds {
		add(FromJSON([]byte(seed)))
	}
	for _, target := range []string{"FuzzFromJSON", "FuzzFromQuery"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no %s corpus: %v", target, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			line := strings.TrimSpace(strings.SplitN(string(data), "\n", 3)[1])
			open := strings.IndexByte(line, '(')
			raw, err := strconv.Unquote(line[open+1 : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if target == "FuzzFromJSON" {
				add(FromJSON([]byte(raw)))
			} else if values, err := url.ParseQuery(raw); err == nil {
				add(FromQuery(values))
			}
		}
	}
	return out
}

// TestCanonicalMatchesFprintf pins the allocation-light key to its
// fmt.Fprintf original on the fuzz corpus, on edge values (-0,
// subnormals, 1e308, negative and zero K) and on seeded random scenarios.
func TestCanonicalMatchesFprintf(t *testing.T) {
	scs := corpusScenarios(t)
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, math.MaxFloat64, 0.1, -7.5}
	r := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 2000; i++ {
		s := Default()
		for _, f := range (&s).fields() {
			switch {
			case f.num != nil:
				*f.num = r.IntN(61) - 30
				if r.IntN(8) == 0 {
					*f.num = math.MinInt
				}
			case r.IntN(3) == 0:
				*f.flt = edges[r.IntN(len(edges))]
			default:
				*f.flt = math.Float64frombits(r.Uint64())
			}
		}
		scs = append(scs, s)
	}
	for _, s := range scs {
		if got, want := s.Canonical(), canonicalFprintf(s); got != want {
			t.Fatalf("Canonical(%+v)\n got %s\nwant %s", s, got, want)
		}
		if got := string(s.AppendCanonical([]byte("rtt|"))); got != "rtt|"+canonicalFprintf(s) {
			t.Fatalf("AppendCanonical after a prefix: %s", got)
		}
	}
}

// TestHitPathAllocs pins the per-request allocation counts of the scenario
// layer: the flat-JSON fast path allocates nothing, Canonical exactly its
// key, and Validate nothing on a valid scenario.
func TestHitPathAllocs(t *testing.T) {
	body := []byte(`{"gamers":80,"pc":80,"ps":125,"t":40,"rup":128,"rdown":1024,"c":5000,"k":9,"q":0.99999,"load":0.5}`)
	sc, err := FromJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"FromJSON", 0, func() { FromJSON(body) }},
		{"Canonical", 1, func() { _ = sc.Canonical() }},
		{"Validate", 0, func() { sc.Validate() }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %v allocs per call, want <= %v", c.name, got, c.max)
		}
	}
}
