package main

import (
	"flag"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
)

// parseFlags registers the daemon's flags on a fresh set and parses
// args into the engine options, server config and shutdown grace.
func parseFlags(t *testing.T, args ...string) (edmstream.Options, server.Config, time.Duration) {
	t.Helper()
	fs := flag.NewFlagSet("edmserved", flag.ContinueOnError)
	var opts edmstream.Options
	var cfg server.Config
	var grace time.Duration
	registerFlags(fs, &opts, &cfg, &grace)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return opts, cfg, grace
}

// TestFlagMapping pins the flag → Options / server.Config mapping:
// every knob lands in the right field and the resulting configs pass
// their own validation.
func TestFlagMapping(t *testing.T) {
	opts, sc, grace := parseFlags(t,
		"-addr", "127.0.0.1:9901",
		"-radius", "0.75",
		"-rate", "2000",
		"-tau", "1.5",
		"-adaptive-tau",
		"-init-points", "250",
		"-max-events", "10000",
		"-max-batch", "2048",
		"-max-pending", "64",
		"-longpoll-timeout", "12s",
		"-max-body", "1048576",
		"-shutdown-grace", "3s",
	)

	if opts.Radius != 0.75 || opts.Rate != 2000 || opts.Tau != 1.5 ||
		!opts.AdaptiveTau || opts.InitPoints != 250 ||
		opts.MaxEvents != 10000 {
		t.Errorf("options mapping wrong: %+v", opts)
	}
	if err := opts.Validate(); err != nil {
		t.Errorf("mapped options invalid: %v", err)
	}

	if sc.Addr != "127.0.0.1:9901" ||
		sc.MaxBatch != 2048 || sc.MaxPending != 64 ||
		sc.LongPollTimeout != 12*time.Second || sc.MaxBodyBytes != 1<<20 {
		t.Errorf("server config mapping wrong: %+v", sc)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("mapped server config invalid: %v", err)
	}
	if grace != 3*time.Second {
		t.Errorf("shutdown grace = %v, want 3s", grace)
	}
}

// TestArchiveFlagMapping pins the archive / disaster-recovery knobs:
// each flag lands in its server.Config field and the combination
// validates (archive flags require -data-dir).
func TestArchiveFlagMapping(t *testing.T) {
	_, sc, _ := parseFlags(t,
		"-data-dir", t.TempDir(),
		"-archive-url", "file:///tmp/edm-archive",
		"-archive-queue", "16",
		"-archive-retry-base", "50ms",
		"-archive-retry-max", "2s",
		"-recovery-budget", "30s",
		"-checkpoint-compress",
		"-restore-from-archive",
	)

	if sc.ArchiveURL != "file:///tmp/edm-archive" || sc.ArchiveQueue != 16 ||
		sc.ArchiveRetryBase != 50*time.Millisecond || sc.ArchiveRetryMax != 2*time.Second ||
		sc.RecoveryBudget != 30*time.Second || !sc.CheckpointCompress || !sc.RestoreFromArchive {
		t.Errorf("archive config mapping wrong: %+v", sc)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("mapped archive config invalid: %v", err)
	}

	// The knobs are rejected without the archive itself: the flag
	// surface and server-side validation must agree.
	_, sc2, _ := parseFlags(t, "-data-dir", t.TempDir(), "-archive-queue", "16")
	if err := sc2.Validate(); err == nil {
		t.Error("archive-queue without -archive-url validated; want error")
	}
}

// TestFlagDefaults: the zero-flag parse produces the documented
// defaults (and an invalid radius, which main rejects explicitly).
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("edmserved", flag.ContinueOnError)
	var opts edmstream.Options
	var cfg server.Config
	var grace time.Duration
	registerFlags(fs, &opts, &cfg, &grace)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "127.0.0.1:8080" || opts.Rate != 1000 ||
		cfg.LongPollTimeout != 30*time.Second ||
		grace != 15*time.Second {
		t.Errorf("defaults wrong: %+v %+v %v", opts, cfg, grace)
	}
	if opts.Radius != 0 {
		t.Errorf("radius default = %g, want 0 (required flag)", opts.Radius)
	}
	// The coalescer has no timed window, so there is no flag for one.
	if fs.Lookup("coalesce-window") != nil {
		t.Error("-coalesce-window is still registered")
	}
	if cfg.ArchiveURL != "" || cfg.ArchiveQueue != 0 || cfg.ArchiveRetryBase != 0 ||
		cfg.ArchiveRetryMax != 0 || cfg.RecoveryBudget != 0 ||
		cfg.CheckpointCompress || cfg.RestoreFromArchive {
		t.Errorf("archive defaults wrong (want all zero/off): %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default server config invalid: %v", err)
	}
}

// TestTenancyFlagMapping pins the multi-tenant knobs: each flag lands
// in its server.Config field, the engine factory is wired, and the
// combination validates (budget/idle eviction require -data-dir).
func TestTenancyFlagMapping(t *testing.T) {
	_, sc, _ := parseFlags(t,
		"-radius", "0.5",
		"-data-dir", t.TempDir(),
		"-max-streams", "64",
		"-memory-budget", "512MiB",
		"-evict-idle-after", "10m",
		"-sweep-interval", "250ms",
	)

	if sc.MaxStreams != 64 ||
		sc.MemoryBudget != 512<<20 ||
		sc.EvictIdleAfter != 10*time.Minute ||
		sc.SweepInterval != 250*time.Millisecond {
		t.Errorf("tenancy config mapping wrong: %+v", sc)
	}
	if sc.NewEngine == nil {
		t.Fatal("NewEngine factory not wired")
	}
	c, err := sc.NewEngine()
	if err != nil || c == nil {
		t.Fatalf("NewEngine() = %v, %v; want a clusterer built from the flags", c, err)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("mapped tenancy config invalid: %v", err)
	}

	// Budget and idle eviction need somewhere to checkpoint to: the
	// flag surface and server-side validation must agree.
	for _, args := range [][]string{
		{"-memory-budget", "512MiB"},
		{"-evict-idle-after", "10m"},
	} {
		if _, sc2, _ := parseFlags(t, args...); sc2.Validate() == nil {
			t.Errorf("%v without -data-dir validated; want error", args)
		}
	}

	// A budget below one engine's floor is rejected at parse-adjacent
	// validation, not discovered as eviction churn in production.
	if _, sc3, _ := parseFlags(t, "-data-dir", t.TempDir(), "-memory-budget", "1024"); sc3.Validate() == nil {
		t.Error("sub-floor -memory-budget validated; want error")
	}
}

// TestParseSize pins the -memory-budget value syntax.
func TestParseSize(t *testing.T) {
	good := map[string]int64{
		"0":       0,
		"1048576": 1 << 20,
		"64KiB":   64 << 10,
		"512MiB":  512 << 20,
		"2GiB":    2 << 30,
		"2gib":    2 << 30,
		"128k":    128 << 10,
		"16M":     16 << 20,
		"1G":      1 << 30,
		"4096b":   4096,
		" 8 MiB ": 8 << 20,
	}
	for in, want := range good {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "MiB", "-1", "-4KiB", "1.5GiB", "9999999999GiB", "10TiB"} {
		if got, err := parseSize(in); err == nil {
			t.Errorf("parseSize(%q) = %d; want error", in, got)
		}
	}
}
