package wal

import (
	"errors"
	"testing"
	"time"
)

// openResilientT opens a ResilientLog over a FaultFS with instant
// backoff, failing the test on error.
func openResilientT(t *testing.T, dir string, ffs *FaultFS, policy RetryPolicy) *ResilientLog {
	t.Helper()
	r, err := OpenResilient(Options{Dir: dir, FS: ffs}, policy)
	if err != nil {
		t.Fatalf("OpenResilient: %v", err)
	}
	r.sleep = func(time.Duration) {}
	return r
}

// reopenAndCollect runs plain recovery on the directory and returns
// every surviving record payload past the checkpoint.
func reopenAndCollect(t *testing.T, dir string) [][]byte {
	t.Helper()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open for verification: %v", err)
	}
	defer l.Close()
	_, recs := collect(t, l)
	return recs
}

// TestResilientRecoversTransientSyncFault: one fsync fails, the
// wrapper reopens and the record comes back durable exactly once.
func TestResilientRecoversTransientSyncFault(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	r := openResilientT(t, dir, ffs, RetryPolicy{})

	recs := payloads(3)
	if _, err := r.AppendSync(recs[0]); err != nil {
		t.Fatalf("AppendSync(0): %v", err)
	}
	ffs.Inject(Fault{Op: "sync"}) // one-shot: the next fsync fails
	seq, err := r.AppendSync(recs[1])
	if err != nil {
		t.Fatalf("AppendSync(1) across transient sync fault: %v", err)
	}
	if seq != 2 {
		t.Fatalf("record after retry got seq %d, want 2 (no duplicate)", seq)
	}
	if !ffs.Fired() {
		t.Fatal("fault never fired; the test exercised nothing")
	}
	if r.Retries() == 0 || r.Reopens() == 0 {
		t.Fatalf("retry telemetry empty: retries=%d reopens=%d", r.Retries(), r.Reopens())
	}
	if _, err := r.AppendSync(recs[2]); err != nil {
		t.Fatalf("AppendSync(2) after recovery: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got := reopenAndCollect(t, dir)
	if len(got) != 3 {
		t.Fatalf("recovered %d records, want 3 (retry must not duplicate)", len(got))
	}
	for i := range got {
		if string(got[i]) != string(recs[i]) {
			t.Fatalf("record %d corrupted by retry", i)
		}
	}
}

// TestResilientRecoversTornWrite: a torn append is truncated by the
// reopen and the record is written again, once.
func TestResilientRecoversTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	r := openResilientT(t, dir, ffs, RetryPolicy{})

	recs := payloads(2)
	if _, err := r.AppendSync(recs[0]); err != nil {
		t.Fatalf("AppendSync(0): %v", err)
	}
	ffs.Inject(Fault{Op: "write", Torn: 7}) // write 7 bytes, then "crash"
	if _, err := r.AppendSync(recs[1]); err != nil {
		t.Fatalf("AppendSync(1) across torn write: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got := reopenAndCollect(t, dir)
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	if string(got[1]) != string(recs[1]) {
		t.Fatal("torn-then-retried record corrupted")
	}
}

// TestResilientExhaustsOnStickyFault: a dead disk drains the attempt
// budget, the error surfaces, and a later Reopen (after the fault
// clears) brings the log back — the server's degraded-mode probe path.
func TestResilientExhaustsOnStickyFault(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	r := openResilientT(t, dir, ffs, RetryPolicy{MaxAttempts: 3})

	if _, err := r.AppendSync([]byte("healthy")); err != nil {
		t.Fatalf("AppendSync healthy: %v", err)
	}
	ffs.Inject(Fault{Op: "sync", Sticky: true})
	if _, err := r.AppendSync([]byte("doomed")); err == nil {
		t.Fatal("AppendSync succeeded under a sticky sync fault")
	}
	if r.Healthy() {
		t.Fatal("log reports healthy after exhausting its attempts")
	}
	if err := r.SaveCheckpoint([]byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("SaveCheckpoint while unavailable: %v, want ErrUnavailable", err)
	}

	ffs.Clear()
	if err := r.Reopen(); err != nil {
		t.Fatalf("Reopen after fault cleared: %v", err)
	}
	if !r.Healthy() {
		t.Fatal("log not healthy after Reopen")
	}
	seq, err := r.AppendSync([]byte("recovered"))
	if err != nil {
		t.Fatalf("AppendSync after recovery: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got := reopenAndCollect(t, dir)
	// "healthy" at seq 1, "recovered" at some later seq; "doomed" must
	// be absent or identical to a record that was never acknowledged —
	// the contract is only that acknowledged records survive and the
	// final append is the last record.
	if len(got) == 0 || string(got[len(got)-1]) != "recovered" {
		t.Fatalf("final record = %q records=%d, want \"recovered\"", got[len(got)-1], len(got))
	}
	if string(got[0]) != "healthy" {
		t.Fatalf("first record = %q, want \"healthy\"", got[0])
	}
	if seq != uint64(len(got)) {
		t.Fatalf("last ack seq %d but %d records on disk", seq, len(got))
	}
}

// TestRetryPolicyBackoffBounds: the jittered backoff stays within
// [d/2, d] of the capped exponential schedule, and a policy with a
// zero base and cap (Backoff reads the fields as given, without
// withDefaults) never sleeps.
func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 8 * time.Millisecond, MaxDelay: 50 * time.Millisecond}.withDefaults()
	want := []time.Duration{8, 16, 32, 50, 50} // ms, pre-jitter, capped
	for i, w := range want {
		w *= time.Millisecond
		for trial := 0; trial < 32; trial++ {
			got := p.Backoff(i + 1)
			if got < w/2 || got > w {
				t.Fatalf("Backoff(%d) = %v outside [%v, %v]", i+1, got, w/2, w)
			}
		}
	}
	if got := (RetryPolicy{}).Backoff(4); got != 0 {
		t.Errorf("zero base/max: Backoff(4) = %v, want 0", got)
	}
}

// TestFaultFSDelay: a pure Delay fault stalls the operation without
// failing it.
func TestFaultFSDelay(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, err := Open(Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("warm")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	ffs.Inject(Fault{Op: "sync", Sticky: true, Delay: 30 * time.Millisecond})
	if _, err := l.Append([]byte("slow")); err != nil {
		t.Fatalf("Append under delay fault: %v", err)
	}
	begin := time.Now()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync under delay fault must succeed, got: %v", err)
	}
	if took := time.Since(begin); took < 25*time.Millisecond {
		t.Fatalf("delayed sync returned in %v, want >= ~30ms", took)
	}
	if !ffs.Fired() {
		t.Fatal("delay fault did not report fired")
	}
}
