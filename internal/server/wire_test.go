package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/densitymountain/edmstream"
)

// canonicalBody renders n points in the serving benchmark's request
// shape: {"vector":[x,y],"time":t} with coordinates rounded to four
// decimals.
func canonicalBody(n int) []byte {
	b := []byte{'['}
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		x := math.Round(math.Sin(float64(i))*1e4*7) / 1e4
		y := math.Round(math.Cos(float64(3*i))*1e4*5) / 1e4
		b = fmt.Appendf(b, `{"vector":[%s,%s],"time":%s}`,
			strconv.FormatFloat(x, 'f', -1, 64), strconv.FormatFloat(y, 'f', -1, 64),
			strconv.FormatFloat(float64(i)/1000, 'f', -1, 64))
	}
	return append(b, ']')
}

// TestDecodePointsObjectForms decodes one object as an array element,
// as a bare object, and as the first and the second NDJSON line: every
// form must yield the same point, or every form must reject it.
func TestDecodePointsObjectForms(t *testing.T) {
	const now = 5
	const filler = `{"vector":[9,9]}`
	cases := []struct {
		obj  string
		want *edmstream.Point // nil: rejected
	}{
		{`{"vector":[1,2],"time":null,"label":null}`,
			&edmstream.Point{Vector: []float64{1, 2}, Time: now, Label: edmstream.NoLabel}},
		{`{"Vector":[1,2]}`,
			&edmstream.Point{Vector: []float64{1, 2}, Time: now, Label: edmstream.NoLabel}},
		{`{"id":-3,"vector":[1.5,-0],"time":0.25,"label":2}`,
			&edmstream.Point{ID: -3, Vector: []float64{1.5, math.Copysign(0, -1)}, Time: 0.25, Label: 2}},
		{`{"tokens":["b","a"],"time":1}`,
			&edmstream.Point{Tokens: edmstream.NewTokenSet("a", "b"), Time: 1, Label: edmstream.NoLabel}},
		{`{"vector":[1,2],"bogus":1}`, nil},
		{`{"vector":[]}`, nil},
		{`{"vector":[1],"tokens":["a"]}`, nil},
		{`{"vector":[1,2],"time":-1}`, nil},
	}
	for _, tc := range cases {
		forms := []struct {
			name string
			body string
			at   int
		}{
			{"array", "[" + tc.obj + "]", 0},
			{"bare", tc.obj, 0},
			{"ndjson-first", tc.obj + "\n" + filler + "\n", 0},
			{"ndjson-second", filler + "\n" + tc.obj + "\n", 1},
		}
		for _, f := range forms {
			pts, err := decodePoints(strings.NewReader(f.body), now, 0)
			if tc.want == nil {
				if err == nil {
					t.Errorf("%s %s: accepted, want rejected", f.name, tc.obj)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s %s: %v", f.name, tc.obj, err)
				continue
			}
			if len(pts) <= f.at || !samePoint(pts[f.at], *tc.want) {
				t.Errorf("%s %s: decoded %+v, want %+v", f.name, tc.obj, pts, *tc.want)
			}
		}
	}
}

// TestScanPointsShape pins which bodies the fast path takes: canonical
// arrays are scanned (and decode exactly as encoding/json decodes
// TestDecodePointsTrailingData pins what may follow a JSON-array body:
// whitespace and newlines are accepted, anything else rejects the whole
// body, on the decoder and as an HTTP 400 with nothing ingested.
func TestDecodePointsTrailingData(t *testing.T) {
	cases := []struct {
		body string
		ok   bool
	}{
		{`[{"vector":[1]}]`, true},
		{"[{\"vector\":[1]}]\n", true},
		{"[{\"vector\":[1]}] \t\r\n \n", true},
		{`[{"vector":[1]}] trailing`, false},
		{`[{"vector":[1]}]]`, false},
		{`[{"vector":[1]}] [{"vector":[2]}]`, false},
		{`[{"vector":[1]}]{"vector":[2]}`, false},
		{"[{\"vector\":[1]}]\n0", false},
	}
	for _, tc := range cases {
		pts, err := decodePoints(strings.NewReader(tc.body), 0, 0)
		if tc.ok && (err != nil || len(pts) != 1) {
			t.Errorf("%q: got %d points, err %v; want 1 point", tc.body, len(pts), err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%q: accepted %d points, want rejected", tc.body, len(pts))
		}
	}

	_, c, base := startServer(t, testOptions(), Config{})
	for _, tc := range cases {
		resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if !tc.ok {
			want = http.StatusBadRequest
		}
		if resp.StatusCode != want {
			t.Errorf("POST %q: status %d, want %d", tc.body, resp.StatusCode, want)
		}
	}
	accepted := 0
	for _, tc := range cases {
		if tc.ok {
			accepted++
		}
	}
	if got := c.Stats().Points; got != int64(accepted) {
		t.Errorf("engine ingested %d points, want %d", got, accepted)
	}
}

// them), everything else is declined to decodeJSON.
func TestScanPointsShape(t *testing.T) {
	cases := []struct {
		body    string
		scanned bool
	}{
		{string(canonicalBody(128)), true},
		{`[{"vector":[1,2]}]`, true},
		{" \t\n[ { \"label\" : 4 , \"vector\" : [ 1e2 , -0.5E-3 ] , \"id\" : -9223372036854775808 , \"time\" : 0 } ]\r\n", true},
		{`[{"vector":[1,2,3]},{"vector":[4]},{"vector":[5,6,7,8,9]}]`, true},
		{`[{"vector":[-0,1e-400,0.0]}]`, true},
		{`[]`, false},
		{`[{"vector":[1]}]x`, false},
		{`[{"vector":[1]},]`, false},
		{`[{"vector":[0]"time":0}]`, false},
		{`[{"vector":[1],"vector":[2]}]`, false},
		{`[{"Vector":[1]}]`, false},
		{`[{"vec\u0074or":[1]}]`, false},
		{`[{"vector":[1],"time":null}]`, false},
		{`[{"vector":[1e400]}]`, false},
		{`[{"vector":[01]}]`, false},
		{`[{"vector":[1.]}]`, false},
		{`[{"vector":[1],"id":1.0}]`, false},
		{`[{"vector":[1],"id":9223372036854775808}]`, false},
		{`[{"vector":[1],"label":1e0}]`, false},
		{`[{"tokens":["a"]}]`, false},
		{`[{"vector":[]}]`, false},
		{`[{"vector":[1],"time":-1}]`, false},
		{`{"vector":[1]}`, false},
	}
	for _, tc := range cases {
		body := []byte(tc.body)
		pts, ok := scanPoints(body, 1, 4096)
		if ok != tc.scanned {
			t.Errorf("scanPoints(%q) ok = %v, want %v", tc.body, ok, tc.scanned)
		}
		if !ok {
			continue
		}
		ref, err := decodeJSON(body, 1, 4096)
		if err != nil {
			t.Fatalf("scanned %q but decodeJSON rejects it: %v", tc.body, err)
		}
		if len(ref) != len(pts) {
			t.Fatalf("%q: scanned %d points, decodeJSON %d", tc.body, len(pts), len(ref))
		}
		for i := range pts {
			if !samePoint(pts[i], ref[i]) {
				t.Errorf("%q point %d: scanned %+v, decodeJSON %+v", tc.body, i, pts[i], ref[i])
			}
		}
	}
	// maxPoints applies on the fast path too.
	if _, ok := scanPoints(canonicalBody(8), 1, 7); ok {
		t.Error("scanPoints accepted 8 points with maxPoints 7")
	}
}

// TestAckBytes: the appended acks are byte-equal to writeJSON's.
func TestAckBytes(t *testing.T) {
	many64 := make([]int64, 128)
	many := make([]int, 128)
	for i := range many {
		many64[i] = int64(i*i*7919) - 5000
		many[i] = i%5 - 1
	}
	ingest := []ingestResponse{
		{Accepted: 0, Cells: []int64{}},
		{Accepted: 0, Cells: nil},
		{Accepted: 1, Cells: []int64{-1}},
		{Accepted: 3, Cells: []int64{math.MaxInt64, math.MinInt64, 0}},
		{Accepted: 128, Cells: many64},
	}
	assign := []assignResponse{
		{Clusters: []int{}},
		{Clusters: nil},
		{Clusters: []int{-1}},
		{Clusters: []int{math.MaxInt, math.MinInt, 0, -1}},
		{Clusters: many},
	}
	check := func(name string, v any, ack func(*httptest.ResponseRecorder)) {
		t.Helper()
		want := httptest.NewRecorder()
		writeJSON(want, 200, v)
		got := httptest.NewRecorder()
		ack(got)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s ack %q, writeJSON %q", name, got.Body.Bytes(), want.Body.Bytes())
		}
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s ack status %d %q, writeJSON %d %q", name, got.Code,
				got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
	}
	for _, r := range ingest {
		check("ingest", r, func(w *httptest.ResponseRecorder) { writeAck(w, r) })
	}
	for _, r := range assign {
		check("assign", r, func(w *httptest.ResponseRecorder) { writeAck(w, r) })
	}
}

// BenchmarkDecodePoints decodes one benchmark-shaped 128-point body.
func BenchmarkDecodePoints(b *testing.B) {
	body := canonicalBody(128)
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		rd.Reset(body)
		if _, err := decodePoints(rd, 1, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
