// Package scenario is the single vocabulary for describing an access-network
// gaming scenario across every front end: the fpsping CLI consumes it as
// flags, the fpspingd daemon as JSON bodies or URL query parameters. All
// three surfaces share one field table, so a flag named -ps, a JSON key "ps"
// and a query parameter ps=125 are the same parameter by construction, in
// the same human-friendly units (bytes, milliseconds, kbit/s).
//
// A Scenario converts to the model-layer core.Model (SI units, resolved
// defaults) with Model(), and to a canonical cache key with Canonical():
// two scenarios that resolve to the same model share the same key, which is
// what the daemon's memo cache is keyed on.
package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"fpsping/internal/core"
)

// Scenario mirrors the CLI's scenario flags one-to-one. Units are the flag
// units of the paper's §4: packet sizes in bytes, intervals in milliseconds,
// rates in kbit/s. The zero value is not useful; start from Default().
type Scenario struct {
	// Gamers is N, the number of active players behind the aggregation link.
	Gamers float64 `json:"gamers"`
	// ClientPacketBytes is PC, the client update size [bytes].
	ClientPacketBytes float64 `json:"pc"`
	// ServerPacketBytes is PS, the mean per-client server packet size [bytes].
	ServerPacketBytes float64 `json:"ps"`
	// BurstIntervalMs is T, the server tick interval [ms].
	BurstIntervalMs float64 `json:"t"`
	// ClientIntervalMs is D, the client update period [ms]; 0 means "= T".
	ClientIntervalMs float64 `json:"d,omitempty"`
	// UplinkKbit is Rup, the per-gamer upstream access rate [kbit/s].
	UplinkKbit float64 `json:"rup"`
	// DownlinkKbit is Rdown, the per-gamer downstream access rate [kbit/s].
	DownlinkKbit float64 `json:"rdown"`
	// AggregateKbit is C, the aggregation link rate [kbit/s].
	AggregateKbit float64 `json:"c"`
	// ErlangOrder is K, the burst-size Erlang order.
	ErlangOrder int `json:"k"`
	// Quantile is the RTT quantile level in (0,1).
	Quantile float64 `json:"q"`
	// FixedMs is extra fixed delay (propagation + processing) [ms].
	FixedMs float64 `json:"fixed,omitempty"`
	// Load, when > 0, sets the downlink load instead of Gamers (eq. 37
	// inverted), exactly like the CLI's -load flag.
	Load float64 `json:"load,omitempty"`
}

// Default returns the §4 DSL reference scenario the CLI flags default to:
// 80 gamers, 80/125-byte packets, 40 ms ticks, 128/1024 kbit/s access,
// 5 Mbit/s aggregation, Erlang(9) bursts, the 99.999% quantile.
func Default() Scenario {
	return Scenario{
		Gamers:            80,
		ClientPacketBytes: 80,
		ServerPacketBytes: 125,
		BurstIntervalMs:   40,
		UplinkKbit:        128,
		DownlinkKbit:      1024,
		AggregateKbit:     5000,
		ErlangOrder:       9,
		Quantile:          core.DefaultQuantile,
	}
}

// field is one row of the shared parameter table: a name (flag name, JSON
// key and query key all at once), a usage string, and a pointer into the
// Scenario (exactly one of flt/num is set).
type field struct {
	name  string
	usage string
	flt   *float64
	num   *int
}

// fields returns the parameter table bound to s. Order is the canonical
// presentation order (also the order Canonical() serializes resolved values
// in).
func (s *Scenario) fields() []field {
	return []field{
		{name: "gamers", usage: "number of gamers N", flt: &s.Gamers},
		{name: "pc", usage: "client packet size [bytes]", flt: &s.ClientPacketBytes},
		{name: "ps", usage: "server packet size [bytes]", flt: &s.ServerPacketBytes},
		{name: "t", usage: "burst inter-arrival time T [ms]", flt: &s.BurstIntervalMs},
		{name: "d", usage: "client inter-arrival time D [ms] (0 = T)", flt: &s.ClientIntervalMs},
		{name: "rup", usage: "uplink access rate [kbit/s]", flt: &s.UplinkKbit},
		{name: "rdown", usage: "downlink access rate [kbit/s]", flt: &s.DownlinkKbit},
		{name: "c", usage: "aggregation link rate [kbit/s]", flt: &s.AggregateKbit},
		{name: "k", usage: "Erlang order K of the burst size", num: &s.ErlangOrder},
		{name: "q", usage: "RTT quantile level", flt: &s.Quantile},
		{name: "fixed", usage: "extra fixed delay (propagation+processing) [ms]", flt: &s.FixedMs},
		{name: "load", usage: "set downlink load instead of -gamers (0 = use -gamers)", flt: &s.Load},
	}
}

// Register installs every scenario parameter as a flag on fs, with s's
// current values as the defaults (and as the target of parsing).
func (s *Scenario) Register(fs *flag.FlagSet) {
	for _, f := range s.fields() {
		if f.num != nil {
			fs.IntVar(f.num, f.name, *f.num, f.usage)
		} else {
			fs.Float64Var(f.flt, f.name, *f.flt, f.usage)
		}
	}
}

// Flags registers the scenario vocabulary on fs with Default() defaults and
// returns the Scenario the parsed flags write into.
func Flags(fs *flag.FlagSet) *Scenario {
	s := Default()
	s.Register(fs)
	return &s
}

// slot returns the Scenario field behind a parameter name (exactly one of
// flt/num is non-nil), or two nils for an unknown name. It names the same
// parameters as fields() (a test pins the two together) but builds no
// table, so lookups on the daemon's per-request decode path do not
// allocate.
func (s *Scenario) slot(name string) (flt *float64, num *int) {
	switch name {
	case "gamers":
		return &s.Gamers, nil
	case "pc":
		return &s.ClientPacketBytes, nil
	case "ps":
		return &s.ServerPacketBytes, nil
	case "t":
		return &s.BurstIntervalMs, nil
	case "d":
		return &s.ClientIntervalMs, nil
	case "rup":
		return &s.UplinkKbit, nil
	case "rdown":
		return &s.DownlinkKbit, nil
	case "c":
		return &s.AggregateKbit, nil
	case "k":
		return nil, &s.ErlangOrder
	case "q":
		return &s.Quantile, nil
	case "fixed":
		return &s.FixedMs, nil
	case "load":
		return &s.Load, nil
	}
	return nil, nil
}

// Set assigns the named parameter from its string form (the same parsing a
// flag or query parameter gets). Unknown names are an error.
func (s *Scenario) Set(name, value string) error {
	flt, num := s.slot(name)
	switch {
	case num != nil:
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("scenario: parameter %q: %w", name, err)
		}
		*num = n
		return nil
	case flt != nil:
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("scenario: parameter %q: %w", name, err)
		}
		*flt = v
		return nil
	}
	return fmt.Errorf("scenario: unknown parameter %q", name)
}

// FromQuery builds a Scenario from URL query parameters, starting from
// Default(); repeated keys take the last value. Keys outside the scenario
// vocabulary are rejected unless listed in extra (endpoints stack their own
// keys, like from/to/step, on the same query), so a typoed parameter fails
// loudly instead of silently evaluating the default scenario.
func FromQuery(values url.Values, extra ...string) (Scenario, error) {
	s := Default()
	known := make(map[string]bool, len(extra))
	for _, k := range extra {
		known[k] = true
	}
	for _, f := range s.fields() {
		known[f.name] = true
		if vs, ok := values[f.name]; ok && len(vs) > 0 {
			if err := s.Set(f.name, vs[len(vs)-1]); err != nil {
				return s, err
			}
		}
	}
	for key := range values {
		if !known[key] {
			return s, fmt.Errorf("scenario: unknown parameter %q", key)
		}
	}
	return s, nil
}

// FromJSON decodes a Scenario from JSON, starting from Default() so absent
// keys keep their defaults. Unknown keys are rejected, so a typoed "gamer"
// fails loudly instead of silently modeling the default population, and so
// is anything but whitespace after the object: {"k":9}{"k":20} is an
// error, not K = 9.
//
// The daemon's common wire form — one flat object of known lowercase keys
// with plain number values — is decoded without reflection. Every other
// input goes through encoding/json, which stays the only authority for
// errors and for rare spellings (case-folded keys, escapes, null); both
// paths give the same Scenario (FuzzFromJSON checks this differentially).
func FromJSON(data []byte) (Scenario, error) {
	if s, ok := fromFlatJSON(data); ok {
		return s, nil
	}
	return fromJSONReflect(data)
}

// fromJSONReflect is FromJSON's encoding/json path.
func fromJSONReflect(data []byte) (Scenario, error) {
	s := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	if err := CheckTrailing(data, dec.InputOffset()); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// CheckTrailing reports an error unless data[end:] is JSON whitespace. A
// json.Decoder stops after the first value; this is the check that makes
// it reject trailing data the way json.Unmarshal does.
func CheckTrailing(data []byte, end int64) error {
	if i := skipSpace(data, int(end)); i < len(data) {
		return fmt.Errorf("trailing data after JSON value at offset %d", i)
	}
	return nil
}

// fromFlatJSON decodes the flat wire form: '{', zero or more "key": number
// members separated by commas, '}', with JSON whitespace anywhere between
// tokens and after the object. Keys must be exact parameter names without
// escapes and values must match the JSON number grammar; they are parsed
// with the strconv calls encoding/json makes for float64 and int fields.
// ok is false for anything else (including a number those calls reject),
// and the caller falls back to encoding/json.
func fromFlatJSON(data []byte) (s Scenario, ok bool) {
	s = Default()
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return s, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return s, skipSpace(data, i+1) == len(data)
	}
	for {
		if i == len(data) || data[i] != '"' {
			return s, false
		}
		j := i + 1
		for j < len(data) && data[j] != '"' && data[j] != '\\' {
			j++
		}
		if j == len(data) || data[j] != '"' {
			return s, false
		}
		flt, num := s.slot(string(data[i+1 : j]))
		i = skipSpace(data, j+1)
		if i == len(data) || data[i] != ':' {
			return s, false
		}
		i = skipSpace(data, i+1)
		j = scanNumber(data, i)
		if j == i {
			return s, false
		}
		switch {
		case flt != nil:
			v, err := strconv.ParseFloat(string(data[i:j]), 64)
			if err != nil {
				return s, false
			}
			*flt = v
		case num != nil:
			n, err := strconv.ParseInt(string(data[i:j]), 10, strconv.IntSize)
			if err != nil {
				return s, false
			}
			*num = int(n)
		default:
			return s, false
		}
		i = skipSpace(data, j)
		if i == len(data) {
			return s, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return s, skipSpace(data, i+1) == len(data)
		default:
			return s, false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of data at
// or after i (len(data) if none), with JSON's definition of whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanNumber returns the end of the JSON number starting at data[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or i when none starts
// there.
func scanNumber(data []byte, i int) int {
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = scanDigits(data, i)
	default:
		return start
	}
	if i < len(data) && data[i] == '.' {
		d := scanDigits(data, i+1)
		if d == i+1 {
			return start
		}
		i = d
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		d := scanDigits(data, i)
		if d == i {
			return start
		}
		i = d
	}
	return i
}

// scanDigits returns the end of the run of ASCII digits starting at i.
func scanDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// Model resolves the scenario into the model layer's units: SI units
// throughout, and Load (when set) converted into the equivalent Gamers via
// eq. (37).
func (s Scenario) Model() core.Model {
	m := core.Model{
		Gamers:             s.Gamers,
		ClientPacketBytes:  s.ClientPacketBytes,
		ServerPacketBytes:  s.ServerPacketBytes,
		BurstInterval:      s.BurstIntervalMs / 1000,
		ClientInterval:     s.ClientIntervalMs / 1000,
		UplinkAccessRate:   s.UplinkKbit * 1000,
		DownlinkAccessRate: s.DownlinkKbit * 1000,
		AggregateRate:      s.AggregateKbit * 1000,
		ErlangOrder:        s.ErlangOrder,
		Quantile:           s.Quantile,
		FixedDelay:         s.FixedMs / 1000,
	}
	if s.Load > 0 {
		m = m.WithDownlinkLoad(s.Load)
	}
	return m
}

// Validate checks the scenario by resolving and validating the model it
// denotes, plus what the model's own checks cannot see: the Load shorthand's
// range and float finiteness (NaN slips through ordered comparisons, and a
// NaN parameter would later make the JSON encoder fail on the response).
func (s Scenario) Validate() error {
	// Summing zero times every float is NaN exactly when one of them is
	// NaN or infinite; the field table is built only to name it.
	if math.IsNaN(0*s.Gamers + 0*s.ClientPacketBytes + 0*s.ServerPacketBytes +
		0*s.BurstIntervalMs + 0*s.ClientIntervalMs + 0*s.UplinkKbit +
		0*s.DownlinkKbit + 0*s.AggregateKbit + 0*s.Quantile + 0*s.FixedMs + 0*s.Load) {
		named := s // only this copy escapes into the table
		for _, f := range named.fields() {
			if f.flt != nil && (math.IsNaN(*f.flt) || math.IsInf(*f.flt, 0)) {
				return fmt.Errorf("%w: parameter %q is not finite (%g)", core.ErrBadModel, f.name, *f.flt)
			}
		}
	}
	if s.Load < 0 {
		return fmt.Errorf("%w: negative load %g", core.ErrBadModel, s.Load)
	}
	m := s.Model()
	if math.IsNaN(m.Gamers) || math.IsInf(m.Gamers, 0) {
		return fmt.Errorf("%w: load %g resolves to a non-finite gamer count", core.ErrBadModel, s.Load)
	}
	return m.Validate()
}

// Canonical returns a cache key identifying the resolved model: scenarios
// that differ only in spelling (explicit d equal to t, load in place of
// gamers, an explicitly spelled default) map to the same key. Float values
// are keyed bit-exactly, so the key never conflates two scenarios the model
// could tell apart. The key is ten 16-digit lowercase hex float images,
// each followed by '|', then 'k' and the Erlang order in decimal.
func (s Scenario) Canonical() string {
	var buf [canonicalCap]byte
	return string(s.AppendCanonical(buf[:0]))
}

// canonicalCap holds any canonical key: ten 17-byte float images, 'k' and
// a 64-bit decimal integer.
const canonicalCap = 10*17 + 1 + 20

// AppendCanonical appends the canonical key to dst and returns the
// extended buffer, so a caller can build a prefixed memo key in one
// allocation.
func (s Scenario) AppendCanonical(dst []byte) []byte {
	m := s.Model()
	// Resolve the two lazy defaults the model applies at evaluation time.
	if m.ClientInterval == 0 {
		m.ClientInterval = m.BurstInterval
	}
	if m.Quantile == 0 {
		m.Quantile = core.DefaultQuantile
	}
	for _, v := range [...]float64{
		m.Gamers, m.ClientPacketBytes, m.ServerPacketBytes,
		m.BurstInterval, m.ClientInterval,
		m.UplinkAccessRate, m.DownlinkAccessRate, m.AggregateRate,
		m.Quantile, m.FixedDelay,
	} {
		bits := math.Float64bits(v)
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, hexDigits[bits>>uint(shift)&0xf])
		}
		dst = append(dst, '|')
	}
	dst = append(dst, 'k')
	return strconv.AppendInt(dst, int64(m.ErlangOrder), 10)
}

const hexDigits = "0123456789abcdef"

// JSON returns the scenario's compact JSON encoding (the daemon's wire
// form). Encoding a Scenario never fails.
func (s Scenario) JSON() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic("scenario: marshal cannot fail: " + err.Error())
	}
	return data
}

// String summarizes the scenario via the resolved model.
func (s Scenario) String() string { return s.Model().String() }
