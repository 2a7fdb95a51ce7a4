package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/densitymountain/edmstream"
)

// Request and phase sizes shared by every workload.
const (
	batchPoints   = 128    // points per ingest request
	assignPoints  = 32     // probes per assign request
	warmupPoints  = 40000  // ordered warm-up on one connection before any timing
	prefillPoints = 48000  // acknowledged before the crash ingest-wal recovers from; see prefillCrash
	quietReadRPS  = 2000   // read-phase rate of the ingest workloads, both connections
	satCapPPS     = 150000 // saturation bodies are rendered for at most this rate
	conns         = 2      // HTTP connections the generator holds (nproc)
	defaultSetups = 3      // daemon starts per run; setup_s is their median
)

// Engine settings every daemon and every reference engine in a run use.
const (
	radius = 1.0
	rate   = 1000.0
)

func daemonArgs(addr, dataDir string) []string {
	args := []string{"-addr", addr,
		"-radius", strconv.FormatFloat(radius, 'g', -1, 64),
		"-rate", strconv.FormatFloat(rate, 'g', -1, 64)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

func engineOptions() edmstream.Options { return edmstream.Options{Radius: radius, Rate: rate} }

// workload is one traffic mix.
type workload struct {
	name    string
	why     string
	streams int     // 1 serves the default stream; more use /v1/tNN/*
	lattice Lattice // per stream
	// ingestPPS is the open-loop ingest rate of the reference phase, in
	// points per wall second across all streams.
	ingestPPS float64
	// readRPS, when set, runs reads on the second connection during the
	// reference phase and the ingest on the first; otherwise both
	// connections ingest and a quiet read phase follows.
	readRPS float64
	durable bool // -data-dir with fsync, recovered from a pre-filled crash
}

// stationary is the 40×40 lattice the ingest workloads share: about 1.7k
// active cells, stamped at 50k points per stream-second.
var stationary = Lattice{Dims: 2, Side: 40, Spacing: 4, Mountains: 8,
	BurstMin: 2, BurstMax: 6, Noise: 0.02, Rate: 50000}

var workloads = []workload{
	{
		name:      "ingest-mem",
		why:       "one in-memory stream at 30k pts/s: HTTP decode, coalescer and engine with no disk, the bypass case for WAL changes",
		streams:   1,
		lattice:   stationary,
		ingestPPS: 30000,
	},
	{
		name:      "ingest-wal",
		why:       "ingest-mem's traffic with an fsynced WAL, started by recovering a crashed pre-filled data dir: isolates the wal layer",
		streams:   1,
		lattice:   stationary,
		ingestPPS: 30000,
		durable:   true,
	},
	{
		name:    "read-mixed",
		why:     "1500 reads/s beside 10k pts/s of drifting ingest that refreshes the clustering twice a second: read path and read-write interference",
		streams: 1,
		// Mountains rise, fall and orbit over a 40 stream-second cycle;
		// at 10k pts/s on the wall clock the clustering refreshes (every
		// stream-second) twice a second and produces events.
		lattice:   Lattice{Dims: 2, Side: 20, Spacing: 4, Mountains: 8, BurstMin: 2, BurstMax: 6, Noise: 0.02, Rate: 5000, Drift: 40},
		ingestPPS: 10000,
		readRPS:   1500,
	},
	{
		name:    "tenants-16",
		why:     "ingest-mem's total load spread round-robin over 16 named streams of 400 cells: tenant registry, writer pool and per-stream fixed costs",
		streams: 16,
		// Each stream gets 1/16 of the traffic, so 1/16 of the
		// stream-time rate keeps its clock pace equal to ingest-mem's.
		lattice:   Lattice{Dims: 2, Side: 20, Spacing: 4, Mountains: 4, BurstMin: 2, BurstMax: 6, Noise: 0.02, Rate: 50000.0 / 16},
		ingestPPS: 30000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// phases splits the measured seconds: the reference phase gets the most,
// then the quiet read phase (ingest workloads only), then saturation.
func (w workload) phases(seconds float64) (ref, reads, sat time.Duration) {
	sec := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	if w.readRPS > 0 {
		return sec(0.75), 0, sec(0.25)
	}
	return sec(0.6), sec(0.15), sec(0.25)
}

// plan is every request of one run, rendered before the daemon starts.
type plan struct {
	prefixes []string
	seeds    []int64 // per-stream generator seeds
	prefill  []op    // ordered, durable workloads only
	warmup   []op    // ordered
	ref      [conns][]op
	reads    [conns][]op
	sat      []op

	refDur, readDur, satDur time.Duration

	// reference holds the prefill and warm-up points of each stream: what
	// a direct engine must be fed to match the daemon after set-up.
	reference [][]edmstream.Point
}

// readMix is read-mixed's endpoint mix, out of 100 requests.
var readMix = []struct {
	ep    endpoint
	share int
}{{epAssign, 88}, {epSnapshot, 8}, {epEvents, 4}}

func buildPlan(w workload, seed int64, seconds float64) *plan {
	p := &plan{}
	p.refDur, p.readDur, p.satDur = w.phases(seconds)
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*gen, w.streams)
	probeGens := make([]*gen, w.streams)
	for s := range gens {
		p.seeds = append(p.seeds, rng.Int63())
		// Same seed, same mountains: the probe generator tracks the
		// stream's weights but spends its own random draws.
		gens[s] = newGen(w.lattice, p.seeds[s])
		probeGens[s] = newGen(w.lattice, p.seeds[s])
		if w.streams == 1 {
			p.prefixes = append(p.prefixes, "/v1")
		} else {
			p.prefixes = append(p.prefixes, fmt.Sprintf("/v1/t%02d", s))
		}
	}
	p.reference = make([][]edmstream.Point, w.streams)

	next := 0
	ingest := func(keep bool) op {
		s := next
		next = (next + 1) % w.streams
		pts := gens[s].points(batchPoints)
		if keep {
			p.reference[s] = append(p.reference[s], pts...)
		}
		return op{ep: epIngest, stream: s, body: ingestBody(pts), points: batchPoints}
	}
	assign := func(s int, t float64) op {
		g := probeGens[s]
		g.at(t)
		vecs := make([][]float64, assignPoints)
		for i := range vecs {
			vecs[i] = g.probe()
		}
		return op{ep: epAssign, stream: s, body: assignBody(vecs)}
	}

	if w.durable {
		for i := 0; i < prefillPoints/batchPoints; i++ {
			p.prefill = append(p.prefill, ingest(true))
		}
	}
	for i := 0; i < warmupPoints/batchPoints; i++ {
		p.warmup = append(p.warmup, ingest(true))
	}
	setupPoints := len(p.prefill)*batchPoints + len(p.warmup)*batchPoints

	interval := time.Duration(float64(batchPoints) / w.ingestPPS * float64(time.Second))
	for k := 0; time.Duration(k)*interval < p.refDur; k++ {
		o := ingest(false)
		o.due = time.Duration(k) * interval
		c := k % conns
		if w.readRPS > 0 {
			c = 0
		}
		p.ref[c] = append(p.ref[c], o)
	}
	// streamTime is a stream's clock when the reference phase has run
	// for d: reads are probed against the mountains the daemon has seen.
	streamTime := func(d time.Duration) float64 {
		sent := float64(setupPoints) + d.Seconds()*w.ingestPPS
		return sent / float64(w.streams) / w.lattice.Rate
	}

	if w.readRPS > 0 {
		interval := time.Duration(float64(time.Second) / w.readRPS)
		for k := 0; time.Duration(k)*interval < p.refDur; k++ {
			due := time.Duration(k) * interval
			var o op
			switch ep := pickRead(rng); ep {
			case epAssign:
				o = assign(0, streamTime(due))
			default:
				o = op{ep: ep}
			}
			o.due = due
			p.ref[1] = append(p.ref[1], o)
		}
	} else {
		interval := time.Duration(float64(time.Second) / quietReadRPS)
		end := streamTime(p.refDur)
		for k := 0; time.Duration(k)*interval < p.readDur; k++ {
			s := k % w.streams
			o := op{ep: endpoint(1 + k%3), stream: s}
			if o.ep == epAssign {
				o = assign(s, end)
			}
			o.due = time.Duration(k) * interval
			p.reads[k%conns] = append(p.reads[k%conns], o)
		}
	}

	for i := 0; i < int(satCapPPS*p.satDur.Seconds())/batchPoints; i++ {
		p.sat = append(p.sat, ingest(false))
	}
	return p
}

func pickRead(rng *rand.Rand) endpoint {
	x := rng.Intn(100)
	for _, m := range readMix {
		if x < m.share {
			return m.ep
		}
		x -= m.share
	}
	return epAssign
}
