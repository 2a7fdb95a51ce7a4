//go:build !race

// The race detector makes sync.Pool drop a share of its puts, so
// allocation counts through the body pool only hold without it.

package server

import (
	"bytes"
	"testing"
)

// TestDecodePointsAllocs pins the fast path's cost: a canonical body
// costs the points slice and the vector slab, nothing per point.
func TestDecodePointsAllocs(t *testing.T) {
	body := canonicalBody(128)
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		pts, err := decodePoints(rd, 1, 4096)
		if err != nil || len(pts) != 128 {
			t.Fatalf("decoded %d points, err %v", len(pts), err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decodePoints allocates %.1f times per 128-point body, want at most 2", allocs)
	}
}
