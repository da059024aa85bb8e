package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fpsping/internal/scenario"
)

// TestTrailingDataRejected: every JSON body endpoint answers 400 when
// anything but whitespace follows the body's value. A decoder that stops
// after the first value once answered {"k":9}{"k":20} as K = 9.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, 1)
	cases := []struct{ path, body string }{
		{"/v1/rtt", `{"k":9}{"k":20}`},
		{"/v1/rtt", `{"k":9}xyz`},
		{"/v1/rtt", `{"K":9} {}`},
		{"/v1/sweep", `{"scenario":{"k":9}}{"from":0.1}`},
		{"/v1/sweep", `{"scenario":{"k":9}} xyz`},
		{"/v1/dimension", `{"scenario":{"k":9},"bound_ms":40}{}`},
		{"/v1/dimension", `{"bound_ms":40}]`},
		{"/v1/rtt:batch", `{"scenarios":[{"k":9}]}{"scenarios":[{"k":20}]}`},
		{"/v1/rtt:batch", `{"scenarios":[{"k":9}]}xyz`},
	}
	for _, c := range cases {
		resp, body := do(t, http.MethodPost, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trailing data") {
			t.Errorf("POST %s %s: status %d, body %s; want a 400 naming the trailing data",
				c.path, c.body, resp.StatusCode, body)
		}
	}
	// Trailing whitespace is not trailing data.
	for _, c := range []struct{ path, body string }{
		{"/v1/rtt", "{\"k\":9}\n"},
		{"/v1/rtt:batch", "{\"scenarios\":[{\"k\":9}]} \r\n\t"},
		{"/v1/dimension", "{\"bound_ms\":40}\n"},
	} {
		if resp, body := do(t, http.MethodPost, ts.URL+c.path, c.body); resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s %q: status %d: %s", c.path, c.body, resp.StatusCode, body)
		}
	}
}

// TestWriteJSONMatchesMarshal pins the pooled encoder to the bytes the
// daemon always sent: json.Marshal's, plus a newline, HTML escaping
// included, whatever the previous use of the pooled buffer left behind.
func TestWriteJSONMatchesMarshal(t *testing.T) {
	e := NewEngine(1, 0)
	sc := scenario.Default()
	sc.Load = 0.5
	res, _, err := e.RTT(sc)
	if err != nil {
		t.Fatal(err)
	}
	big := BatchResult{Cached: 3}
	for i := 0; i < 400; i++ {
		big.Results = append(big.Results, BatchItem{Result: &res})
	}
	for _, v := range []any{
		res,
		big,
		e.Batch([]scenario.Scenario{sc, {ErlangOrder: 1}, sc}),
		apiError{Error: "bad <scenario> & \"quotes\" \u2028"},
		Health{Status: "ok", Ready: true},
		res,
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("writeJSON(%T) differs from json.Marshal:\n%s\n%s", v, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, func() {})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unencodable value: status %d, want 500", rec.Code)
	}
}

// TestReadLimited covers both sizing paths and the cap on each: a known
// size is read exactly and an announced oversize is refused unread; an
// unknown size is capped as it arrives; a short body is an error.
func TestReadLimited(t *testing.T) {
	payload := strings.Repeat("x", 100)
	cases := []struct {
		name      string
		size      int64
		limit     int64
		wantData  string
		wantOver  bool
		wantError bool
	}{
		{"known", 100, 100, payload, false, false},
		{"known over", 100, 99, "", true, false},
		{"known short", 101, 200, "", false, true},
		{"unknown", -1, 100, payload, false, false},
		{"unknown over", -1, 99, "", true, false},
		{"empty", 0, 10, "", false, false},
	}
	for _, c := range cases {
		rd := &countingReader{r: strings.NewReader(payload)}
		data, over, err := ReadLimited(rd, c.size, c.limit)
		if over != c.wantOver || (err != nil) != c.wantError || (!over && err == nil && string(data) != c.wantData) {
			t.Errorf("%s: data %d bytes, over %v, err %v", c.name, len(data), over, err)
		}
		if c.name == "known over" && rd.n != 0 {
			t.Errorf("announced oversize read %d bytes", rd.n)
		}
		if c.name == "known short" && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("short body: %v", err)
		}
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestHitPathAllocs pins the engine's hit path: a cached RTT allocates its
// memo key and nothing else, and a batch of hits builds each item's key
// once.
func TestHitPathAllocs(t *testing.T) {
	e := NewEngine(1, 0)
	sc := scenario.Default()
	sc.Load = 0.5
	scs := []scenario.Scenario{sc, sc, scenario.Default()}
	e.Batch(scs)
	if got := testing.AllocsPerRun(200, func() { e.RTT(sc) }); got > 1 {
		t.Errorf("RTT hit: %v allocs, want 1 (the memo key)", got)
	}
	if got := testing.AllocsPerRun(200, func() { e.Batch(scs) }); got > 15 {
		t.Errorf("Batch of 3 hits: %v allocs, want <= 15", got)
	}
}
