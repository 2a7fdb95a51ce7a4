package main

import (
	"fmt"

	"github.com/densitymountain/edmstream"
)

// snapshotBody is the part of GET /v1/snapshot the gates compare.
type snapshotBody struct {
	Tau          float64 `json:"tau"`
	ActiveCells  int     `json:"active_cells"`
	OutlierCells int     `json:"outlier_cells"`
	Clusters     []struct {
		ID    int `json:"id"`
		Cells int `json:"cells"`
	} `json:"clusters"`
}

// checkPublished fails unless every stream has published at least one
// cluster: the end of set-up.
func checkPublished(c *conn) error {
	for _, prefix := range c.prefix {
		var snap snapshotBody
		if err := getJSON(c.client, c.base+prefix+"/snapshot", &snap); err != nil {
			return err
		}
		if len(snap.Clusters) == 0 {
			return fmt.Errorf("stream %s published no cluster after set-up", prefix)
		}
	}
	return nil
}

// checkSetupState is the first correctness gate: after the ordered
// set-up traffic, each stream's published snapshot and engine counters
// must equal those of a direct engine fed the same points with the same
// options. On a recovered daemon this also proves the recovery.
func checkSetupState(c *conn, reference [][]edmstream.Point) error {
	for s, pts := range reference {
		direct, err := edmstream.New(engineOptions())
		if err != nil {
			return err
		}
		if err := direct.InsertBatch(pts); err != nil {
			return fmt.Errorf("reference engine: %w", err)
		}
		want := direct.LastSnapshot()
		var got snapshotBody
		if err := getJSON(c.client, c.base+c.prefix[s]+"/snapshot", &got); err != nil {
			return err
		}
		where := c.prefix[s] + "/snapshot"
		if len(got.Clusters) != len(want.Clusters) {
			return fmt.Errorf("%s: %d clusters, reference engine has %d", where, len(got.Clusters), len(want.Clusters))
		}
		if got.Tau != want.Tau || got.ActiveCells != want.ActiveCells || got.OutlierCells != want.OutlierCells {
			return fmt.Errorf("%s: tau %v, %d active, %d outlier cells; reference engine: tau %v, %d active, %d outlier",
				where, got.Tau, got.ActiveCells, got.OutlierCells, want.Tau, want.ActiveCells, want.OutlierCells)
		}
		for i, cl := range got.Clusters {
			if cl.ID != want.Clusters[i].ID || cl.Cells != len(want.Clusters[i].CellIDs) {
				return fmt.Errorf("%s: cluster %d has id %d and %d cells; reference engine: id %d, %d cells",
					where, i, cl.ID, cl.Cells, want.Clusters[i].ID, len(want.Clusters[i].CellIDs))
			}
		}
		var st statsBody
		if err := getJSON(c.client, c.base+c.prefix[s]+"/stats", &st); err != nil {
			return err
		}
		ws, gs := direct.Stats(), st.Engine
		if gs.Points != ws.Points || gs.CellsCreated != ws.CellsCreated || gs.ActiveCells != ws.ActiveCells ||
			gs.InactiveCells != ws.InactiveCells || gs.EvolutionEvents != ws.EvolutionEvents {
			return fmt.Errorf("%s/stats: engine counters %+v differ from the reference engine's %+v",
				c.prefix[s], counters(gs), counters(ws))
		}
	}
	return nil
}

func counters(s edmstream.Stats) [5]int64 {
	return [5]int64{s.Points, s.CellsCreated, int64(s.ActiveCells), int64(s.InactiveCells), s.EvolutionEvents}
}

// checkLedger is the end-of-run gate on every stream: acknowledged
// points ⊆ points in the engine ⊆ points sent, with equality on the left
// when no request failed.
func checkLedger(prefixes []string, sent, acked []int, engine []int64, failed int) error {
	for s := range prefixes {
		e := int(engine[s])
		if acked[s] > e || e > sent[s] {
			return fmt.Errorf("%s: %d points acknowledged, %d in the engine, %d sent: want acknowledged ≤ engine ≤ sent",
				prefixes[s], acked[s], e, sent[s])
		}
		if failed == 0 && acked[s] != e {
			return fmt.Errorf("%s: no request failed, yet %d points acknowledged and %d in the engine", prefixes[s], acked[s], e)
		}
	}
	return nil
}

// minHitRate is the share of read-mixed's in-distribution assign probes
// that must land in a cluster.
const minHitRate = 0.9

// checkEnd runs the end-of-run gates on the measured daemon: the ledger
// over its whole life (the crashed prefill it recovered, its warm-up,
// every measured phase), read-mixed's hit rate, and the live streams.
func checkEnd(w workload, p *plan, res *passResult, end *scrape) error {
	sent := make([]int, len(p.prefixes))
	acked := make([]int, len(p.prefixes))
	failed := 0
	for _, ps := range []*phaseStats{res.ref, res.reads, res.sat} {
		if ps == nil {
			continue
		}
		failed += ps.failed
		for s := range sent {
			sent[s] += ps.sent[s]
			acked[s] += ps.acked[s]
		}
	}
	for _, o := range append(append([]op(nil), p.prefill...), p.warmup...) {
		sent[o.stream] += o.points
		acked[o.stream] += o.points
	}
	engine := make([]int64, len(p.prefixes))
	for s := range engine {
		engine[s] = end.engine[s].Points
	}
	if err := checkLedger(p.prefixes, sent, acked, engine, failed); err != nil {
		return fmt.Errorf("ledger gate: %w", err)
	}
	if rate := hitRate(res.ref); w.readRPS > 0 && rate < minHitRate {
		return fmt.Errorf("hit-rate gate: %.4f of in-distribution assign probes landed in a cluster, want ≥ %v", rate, minHitRate)
	}
	if res.liveStreams != w.streams {
		return fmt.Errorf("streams gate: %d of %d streams live at the end", res.liveStreams, w.streams)
	}
	return nil
}

func hitRate(ps *phaseStats) float64 {
	if ps.assigned == 0 {
		return 0
	}
	return float64(ps.hits) / float64(ps.assigned)
}
