package bench

import (
	"fmt"
	"os"
	"testing"
)

// TestMain diverts the test binary into serving-child mode when a
// drill re-execs it (see RunChild); cmd/edmbench has the same hook, so
// the drills work from both binaries.
func TestMain(m *testing.M) {
	if os.Getenv(ChildEnv) != "" {
		if err := RunChild(); err != nil {
			fmt.Fprintf(os.Stderr, "%s child: %v\n", os.Getenv(ChildEnv), err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckLedger pins the one ledger contract every drill asserts:
// whole batches only, and lo <= recovered <= hi, both bounds inclusive.
func TestCheckLedger(t *testing.T) {
	for _, tc := range []struct {
		recovered, batch, lo, hi int64
		ok                       bool
	}{
		{recovered: 256, batch: 128, lo: 256, hi: 256, ok: true},
		{recovered: 256, batch: 128, lo: 128, hi: 384, ok: true},
		{recovered: 0, batch: 16, lo: 0, hi: 0, ok: true},
		{recovered: 200, batch: 128, lo: 0, hi: 384},   // partial batch
		{recovered: 128, batch: 128, lo: 256, hi: 384}, // lost an acked batch
		{recovered: 512, batch: 128, lo: 256, hi: 384}, // invented a batch
	} {
		err := checkLedger("test", tc.recovered, tc.batch, tc.lo, tc.hi)
		if (err == nil) != tc.ok {
			t.Errorf("checkLedger(%d, batch %d, [%d, %d]) = %v, want ok=%v", tc.recovered, tc.batch, tc.lo, tc.hi, err, tc.ok)
		}
	}
}

// TestUnknownChildDrill: a child named for no drill fails fast instead
// of serving something the parent did not ask for.
func TestUnknownChildDrill(t *testing.T) {
	t.Setenv(ChildEnv, "no-such-drill")
	if err := RunChild(); err == nil {
		t.Fatal("RunChild accepted an unknown drill")
	}
}
