package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"github.com/densitymountain/edmstream"
)

// wirePoint is the JSON form of one stream point. Exactly one of
// vector/tokens must be present. Omitted time means "stamp with the
// server's stream clock at decode" (seconds since the server
// started); explicit times let a single writer replay a recorded
// stream deterministically. id and label are optional and preserved
// verbatim (the engine uses them only for error messages and
// evaluation).
type wirePoint struct {
	ID     *int64    `json:"id,omitempty"`
	Vector []float64 `json:"vector,omitempty"`
	Tokens []string  `json:"tokens,omitempty"`
	Time   *float64  `json:"time,omitempty"`
	Label  *int      `json:"label,omitempty"`
}

// toPoint converts a wire point, stamping omitted fields. now is the
// server's stream clock reading for this request. A point that carries
// both a vector and tokens keeps both, so admitPoint can reject it.
func (w wirePoint) toPoint(now float64) edmstream.Point {
	p := edmstream.Point{Label: edmstream.NoLabel, Time: now, Vector: w.Vector}
	if w.ID != nil {
		p.ID = *w.ID
	}
	if w.Time != nil {
		p.Time = *w.Time
	}
	if w.Label != nil {
		p.Label = *w.Label
	}
	if w.Tokens != nil {
		p.Tokens = edmstream.NewTokenSet(w.Tokens...)
	}
	return p
}

// maxPooledBuf caps the buffers bufPool keeps: a buffer that grew past
// it for one large body or ack is left to the collector, so a single
// 8 MiB request cannot pin that much memory for the process lifetime.
const maxPooledBuf = 64 << 10

// bufPool recycles the buffers request bodies are read into and acks
// are rendered into.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		bufPool.Put(b)
	}
}

// decodePoints reads an ingest or assign request body: either a JSON
// array of point objects or NDJSON (one point object per line; any
// whitespace separation works). Each decoded point is validated so a
// malformed request is rejected before it can poison a coalesced
// batch shared with other requests. maxPoints bounds the decoded
// count (0 = unbounded).
//
// The body is read once into a pooled buffer. Canonical JSON-array
// bodies take scanPoints, a reflection-free scanner; every other body,
// and every body scanPoints declines, goes to decodeJSON, which alone
// decides what a body means and what its error says.
func decodePoints(r io.Reader, now float64, maxPoints int) ([]edmstream.Point, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	if pts, ok := scanPoints(buf.Bytes(), now, maxPoints); ok {
		return pts, nil
	}
	return decodeJSON(buf.Bytes(), now, maxPoints)
}

// decodeJSON is the encoding/json decoder of a buffered body: the
// definition of what every body means. A body whose first non-space
// byte is '{' is NDJSON (a single bare object is a one-line NDJSON
// body), and every one of its objects goes through the same
// dec.Decode as an array element does.
func decodeJSON(body []byte, now float64, maxPoints int) ([]edmstream.Point, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()

	var pts []edmstream.Point
	next := func() error {
		var w wirePoint
		if err := dec.Decode(&w); err != nil {
			return fmt.Errorf("point %d: %w", len(pts), err)
		}
		var err error
		pts, err = admitPoint(pts, w.toPoint(now), maxPoints)
		return err
	}

	if i := skipSpace(body, 0); i < len(body) && body[i] == '{' {
		for {
			err := next()
			if errors.Is(err, io.EOF) {
				return pts, nil
			}
			if err != nil {
				return nil, err
			}
		}
	}

	tok, err := dec.Token()
	if errors.Is(err, io.EOF) {
		return nil, errors.New("empty request body")
	}
	if err != nil {
		return nil, err
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return nil, fmt.Errorf("request body must be a JSON array of points or NDJSON, got %v", tok)
	}
	for dec.More() {
		if err := next(); err != nil {
			return nil, err
		}
	}
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	// Only whitespace may follow the array: a body with more after its
	// closing bracket is not the array alone, and acking the array
	// would drop the rest without a word.
	if i := skipSpace(body, int(dec.InputOffset())); i < len(body) {
		return nil, fmt.Errorf("unexpected data after the JSON array at byte %d", i)
	}
	return pts, nil
}

// admitPoint applies the rules every decoded point must pass, on either
// decode path, and appends it to pts: exactly one of vector and tokens,
// a non-empty vector, Point.Validate, and at most maxPoints points
// (0 = unbounded).
func admitPoint(pts []edmstream.Point, p edmstream.Point, maxPoints int) ([]edmstream.Point, error) {
	if p.Vector != nil && p.Tokens != nil {
		return pts, fmt.Errorf("point %d: has both vector and tokens", len(pts))
	}
	if p.Tokens == nil && len(p.Vector) == 0 {
		return pts, fmt.Errorf("point %d: vector must have at least one coordinate", len(pts))
	}
	if err := p.Validate(); err != nil {
		return pts, fmt.Errorf("point %d: %w", len(pts), err)
	}
	if maxPoints > 0 && len(pts) >= maxPoints {
		return pts, fmt.Errorf("too many points in one request (max %d)", maxPoints)
	}
	return append(pts, p), nil
}

// pointShape encodes a point's modality and dimensionality as one
// comparable value: -1 for token sets, the vector dimensionality
// otherwise (always > 0; zero-dimension vectors are rejected at
// decode). The engine's stream is homogeneous — one modality, one
// dimensionality, fixed by the first point — so the server checks
// every decoded point against the established shape instead of
// letting a mismatch reach the distance kernels (which would panic on
// a shorter vector or silently truncate a longer one).
func pointShape(p edmstream.Point) int64 {
	if p.IsText() {
		return -1
	}
	return int64(p.Dim())
}

// shapeString renders a shape for error messages.
func shapeString(shape int64) string {
	if shape == -1 {
		return "token-set"
	}
	return fmt.Sprintf("%d-dimensional vector", shape)
}

// wireEvent is the JSON form of one evolution event.
type wireEvent struct {
	Kind    string  `json:"kind"`
	Time    float64 `json:"time"`
	Sources []int   `json:"sources,omitempty"`
	Targets []int   `json:"targets,omitempty"`
}

func toWireEvents(evs []edmstream.Event) []wireEvent {
	out := make([]wireEvent, len(evs))
	for i, e := range evs {
		out[i] = wireEvent{Kind: string(e.Kind), Time: e.Time, Sources: e.Sources, Targets: e.Targets}
	}
	return out
}

// ingestResponse acknowledges one ingest request: the number of
// points committed and, aligned with the request's points, the ID of
// the cluster-cell each point landed in.
type ingestResponse struct {
	Accepted int     `json:"accepted"`
	Cells    []int64 `json:"cells"`
}

// assignResponse carries one cluster ID per request point; -1 marks
// an outlier (or no published snapshot yet). For a single-object
// request the clusters array still has exactly one entry.
type assignResponse struct {
	Clusters []int `json:"clusters"`
}

// The two hot acks render themselves by appending, with the same bytes
// writeJSON would send (trailing newline included); every other
// response goes through writeJSON.

func (r ingestResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(r.Accepted), 10)
	b = append(b, `,"cells":`...)
	b = appendInts(b, r.Cells)
	return append(b, "}\n"...)
}

func (r assignResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"clusters":`...)
	b = appendInts(b, r.Clusters)
	return append(b, "}\n"...)
}

// appendInts renders xs as a JSON array, or null for a nil slice, as
// encoding/json does.
func appendInts[T int | int64](b []byte, xs []T) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// wireClusterSummary is one cluster in the snapshot listing.
type wireClusterSummary struct {
	ID          int     `json:"id"`
	PeakCellID  int64   `json:"peak_cell_id"`
	PeakDensity float64 `json:"peak_density"`
	Cells       int     `json:"cells"`
	Weight      float64 `json:"weight"`
	Points      int64   `json:"points"`
}

// snapshotResponse is the GET /v1/snapshot body: the published
// clustering without per-cell payloads (GET /v1/clusters/{id} has
// those).
type snapshotResponse struct {
	Time         float64              `json:"time"`
	Tau          float64              `json:"tau"`
	ActiveCells  int                  `json:"active_cells"`
	OutlierCells int                  `json:"outlier_cells"`
	Clusters     []wireClusterSummary `json:"clusters"`
}

// wireSeed is one member cell of a cluster detail response.
type wireSeed struct {
	CellID int64     `json:"cell_id"`
	Vector []float64 `json:"vector,omitempty"`
	Tokens []string  `json:"tokens,omitempty"`
}

// clusterResponse is the GET /v1/clusters/{id} body.
type clusterResponse struct {
	wireClusterSummary
	Members []wireSeed `json:"members"`
}

// eventsResponse is the GET /v1/events body. Cursor is the next
// cursor to poll with; it only advances when new events are recorded.
type eventsResponse struct {
	Cursor uint64      `json:"cursor"`
	Events []wireEvent `json:"events"`
}

// errorResponse is the uniform error body. Shed responses (429/503)
// additionally carry a machine-readable reason ("overloaded",
// "degraded", "draining") and mirror the Retry-After header so
// body-only clients see the hint too.
type errorResponse struct {
	Error             string `json:"error"`
	Reason            string `json:"reason,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}
