package main

import (
	"reflect"
	"testing"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	const ms = 1_000_000
	spans := []span{
		// A client span of 10ms whose handler span covers 2-9ms.
		{ID: 1, Name: "client.ingest", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "server.ingest", Start: 2 * ms, End: 9 * ms},
		// Overlapping children and one sticking out past the parent:
		// only the union inside the parent is subtracted (1-6ms, 7-8ms).
		{ID: 3, Name: "client.assign", Start: 0, End: 8 * ms},
		{ID: 4, Parent: 3, Name: "server.assign", Start: 1 * ms, End: 4 * ms},
		{ID: 5, Parent: 3, Name: "server.assign", Start: 3 * ms, End: 6 * ms},
		{ID: 6, Parent: 3, Name: "server.assign", Start: 7 * ms, End: 12 * ms},
		// A root span with no children keeps its whole duration.
		{ID: 7, Name: "wal.sync", Start: 0, End: 3 * ms},
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"client.ingest": {3},
		"server.ingest": {7},
		"client.assign": {2},
		"server.assign": {3, 3, 5},
		"wal.sync":      {3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCoveredNestedAndDisjoint(t *testing.T) {
	kids := []span{{Start: 2, End: 8}, {Start: 3, End: 4}, {Start: 20, End: 30}, {Start: -5, End: 1}}
	if got := covered(0, 10, kids); got != 7 {
		t.Errorf("covered = %d, want 7 (1 from the early child, 6 from the nested pair)", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}
