package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// payloads generates n distinct record payloads of varying sizes.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 20+i%50)
		for j := range p {
			p[j] = byte(i + j)
		}
		out[i] = p
	}
	return out
}

// appendAll appends every payload and syncs after each one.
func appendAll(t *testing.T, l *Log, recs [][]byte) {
	t.Helper()
	for i, p := range recs {
		if _, err := l.Append(p); err != nil {
			t.Fatalf("Append(record %d): %v", i, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync(record %d): %v", i, err)
		}
	}
}

// collect replays the log tail into a slice.
func collect(t *testing.T, l *Log) (seqs []uint64, recs [][]byte) {
	t.Helper()
	err := l.Replay(func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		recs = append(recs, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return seqs, recs
}

// lastSegment returns the path of the live segment with the highest
// first-sequence number.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var last string
	for _, ent := range entries {
		name := ent.Name()
		if len(name) > len(segPrefix)+len(segExt) && name[:len(segPrefix)] == segPrefix && filepath.Ext(name) == segExt {
			if last == "" || name > last {
				last = name
			}
		}
	}
	if last == "" {
		t.Fatal("no segment files found")
	}
	return filepath.Join(dir, last)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(200)

	// A small rotation threshold forces the stream across many
	// segments, exercising header continuity on recovery.
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs)
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	info := re.Info()
	if info.HasCheckpoint || info.RecordsReplayable != len(recs) || info.DroppedBytes != 0 || info.TruncatedSegment != "" {
		t.Fatalf("unexpected recovery info for a clean log: %+v", info)
	}
	seqs, got := collect(t, re)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, seqs[i], i+1)
		}
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d payload differs", i)
		}
	}

	// Appends continue the sequence; a third open sees the new tail.
	if seq, err := re.Append([]byte("more")); err != nil || seq != uint64(len(recs)+1) {
		t.Fatalf("Append after reopen = (%d, %v), want seq %d", seq, err, len(recs)+1)
	}
	if err := re.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	re.Close()
	third, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer third.Close()
	if n := third.Info().RecordsReplayable; n != len(recs)+1 {
		t.Fatalf("third open replays %d records, want %d", n, len(recs)+1)
	}
}

func TestCheckpointCoversTailAndPrunes(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(120)

	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs[:80])
	state := []byte("engine state at record 80")
	if err := l.SaveCheckpoint(state); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	pruned := l.Stats().Segments
	appendAll(t, l, recs[80:])
	l.Close()

	re, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	info := re.Info()
	if !info.HasCheckpoint || info.CheckpointSeq != 81 {
		t.Fatalf("recovery info %+v, want checkpoint covering through seq 80", info)
	}
	if !bytes.Equal(re.Checkpoint(), state) {
		t.Fatalf("checkpoint payload %q, want %q", re.Checkpoint(), state)
	}
	seqs, got := collect(t, re)
	if len(got) != 40 || seqs[0] != 81 || seqs[len(seqs)-1] != 120 {
		t.Fatalf("replayed %d records spanning [%d,%d], want 40 spanning [81,120]",
			len(got), seqs[0], seqs[len(seqs)-1])
	}
	for i, p := range got {
		if !bytes.Equal(p, recs[80+i]) {
			t.Fatalf("replayed record %d differs", i)
		}
	}
	if info.SegmentsScanned > pruned+3 {
		t.Fatalf("checkpoint did not prune: %d segments survive, %d at checkpoint time",
			info.SegmentsScanned, pruned)
	}

	// A second checkpoint removes the first.
	if err := re.SaveCheckpoint([]byte("state at 120")); err != nil {
		t.Fatalf("second SaveCheckpoint: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	ckpts := 0
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == ckptExt {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d checkpoint files after the second checkpoint, want 1", ckpts)
	}
}

// TestTornTailTruncated is the core crash model: the process dies
// mid-write, leaving a partial record. Recovery must keep exactly the
// acknowledged prefix, truncate the torn bytes, and the log must keep
// working — including across yet another reopen.
func TestTornTailTruncated(t *testing.T) {
	for _, torn := range []int{1, 3, 11, 15} {
		t.Run(fmt.Sprintf("torn%d", torn), func(t *testing.T) {
			dir := t.TempDir()
			recs := payloads(30)
			l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendAll(t, l, recs)
			l.Close()

			// Simulate the crash: append a partial record image by hand.
			seg := lastSegment(t, dir)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatalf("opening segment: %v", err)
			}
			junk := make([]byte, torn)
			for i := range junk {
				junk[i] = 0x5a
			}
			if _, err := f.Write(junk); err != nil {
				t.Fatalf("writing torn tail: %v", err)
			}
			f.Close()

			re, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			info := re.Info()
			if info.RecordsReplayable != len(recs) {
				t.Fatalf("recovered %d records, want %d (info %+v)", info.RecordsReplayable, len(recs), info)
			}
			if info.DroppedBytes != int64(torn) || info.TruncatedSegment == "" {
				t.Fatalf("expected %d dropped bytes and a truncated segment, got %+v", torn, info)
			}
			seqs, _ := collect(t, re)
			if seqs[len(seqs)-1] != uint64(len(recs)) {
				t.Fatalf("last recovered seq %d, want %d", seqs[len(seqs)-1], len(recs))
			}
			// The log keeps accepting appends after the repair...
			if seq, err := re.Append([]byte("after repair")); err != nil || seq != uint64(len(recs)+1) {
				t.Fatalf("Append after repair = (%d, %v)", seq, err)
			}
			if err := re.Sync(); err != nil {
				t.Fatalf("Sync after repair: %v", err)
			}
			re.Close()
			// ...and the repaired file is clean on the next recovery.
			again, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			defer again.Close()
			if info := again.Info(); info.DroppedBytes != 0 || info.RecordsReplayable != len(recs)+1 {
				t.Fatalf("repaired log still dirty: %+v", info)
			}
		})
	}
}

// TestTruncationSweep cuts the tail segment at EVERY byte offset in its
// final records and asserts recovery never panics, never invents data,
// and always recovers a strict prefix of the appended records.
func TestTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(10)
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs)
	l.Close()

	seg := lastSegment(t, dir)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	for cut := len(pristine) - 1; cut >= 0; cut-- {
		if err := os.WriteFile(seg, pristine[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		re, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		seqs, got := collect(t, re)
		for i := range got {
			if seqs[i] != uint64(i+1) || !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("cut %d: record %d is not the appended record", cut, i)
			}
		}
		re.Close()
		// Restore the file (recovery may have truncated or removed it).
		if err := os.WriteFile(seg, pristine, 0o644); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
	}
}

// TestBitFlipDropsTail asserts a corrupted byte anywhere in a record
// invalidates that record and everything after it (a mid-log record
// cannot be skipped: replay order is the correctness contract).
func TestBitFlipDropsTail(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(20)
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs)
	l.Close()

	seg := lastSegment(t, dir)
	pristine, _ := os.ReadFile(seg)
	for _, at := range []float64{0.3, 0.6, 0.95} {
		off := segHeaderLen + int(float64(len(pristine)-segHeaderLen)*at)
		corrupt := append([]byte(nil), pristine...)
		corrupt[off] ^= 0x08
		if err := os.WriteFile(seg, corrupt, 0o644); err != nil {
			t.Fatalf("writing corruption: %v", err)
		}
		re, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open over corruption at %d: %v", off, err)
		}
		info := re.Info()
		if info.DroppedBytes == 0 {
			t.Fatalf("corruption at byte %d went undetected", off)
		}
		seqs, got := collect(t, re)
		if len(got) >= len(recs) {
			t.Fatalf("corruption at byte %d: %d records recovered, want fewer than %d", off, len(got), len(recs))
		}
		for i := range got {
			if seqs[i] != uint64(i+1) || !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("corruption at byte %d: surviving record %d differs", off, i)
			}
		}
		re.Close()
		if err := os.WriteFile(seg, pristine, 0o644); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
}

// TestCorruptCheckpointFallback damages checkpoints in turn: recovery
// must fall back to an older valid checkpoint, or to a full replay,
// and report how many it skipped.
func TestCorruptCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(60)
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs[:40])
	if err := l.SaveCheckpoint([]byte("good state at 40")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	appendAll(t, l, recs[40:])
	l.Close()

	// A newer checkpoint file full of garbage: recovery skips it and
	// loads the valid one underneath.
	bogus := filepath.Join(dir, ckptName(1000))
	if err := os.WriteFile(bogus, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatalf("writing bogus checkpoint: %v", err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	info := re.Info()
	if !info.HasCheckpoint || info.CheckpointSeq != 41 || info.CheckpointsSkipped != 1 {
		t.Fatalf("recovery info %+v, want fallback to the seq-41 checkpoint with 1 skipped", info)
	}
	if string(re.Checkpoint()) != "good state at 40" {
		t.Fatalf("wrong checkpoint payload %q", re.Checkpoint())
	}
	seqs, _ := collect(t, re)
	if len(seqs) != 20 || seqs[0] != 41 {
		t.Fatalf("replay after fallback: %d records from seq %d, want 20 from 41", len(seqs), seqs[0])
	}
	re.Close()
	if _, err := os.Stat(bogus); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt checkpoint file was not removed: %v", err)
	}

	// Now corrupt the real checkpoint too: recovery falls back to a
	// full replay from the oldest surviving record.
	good := filepath.Join(dir, ckptName(41))
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatalf("corrupting checkpoint: %v", err)
	}
	re2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen without valid checkpoint: %v", err)
	}
	defer re2.Close()
	info = re2.Info()
	if info.HasCheckpoint || info.CheckpointsSkipped != 1 {
		t.Fatalf("recovery info %+v, want no checkpoint and 1 skipped", info)
	}
	if re2.Checkpoint() != nil {
		t.Fatal("Checkpoint() should be nil when every checkpoint is damaged")
	}
	seqs, got := collect(t, re2)
	if len(got) != len(recs) || seqs[0] != 1 {
		t.Fatalf("full replay recovered %d records from seq %d, want %d from 1", len(got), seqs[0], len(recs))
	}

	// Truncated checkpoints (every prefix of the header) are equally
	// rejected — regression guard for the length/magic validation.
	re2.Close()
	full, _ := os.ReadFile(filepath.Join(dir, ckptName(41)))
	for _, cut := range []int{0, 7, 15, 23, 27} {
		if cut > len(full) {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, ckptName(41)), full[:cut], 0o644); err != nil {
			t.Fatalf("truncating checkpoint to %d: %v", cut, err)
		}
		re3, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("open over checkpoint truncated to %d: %v", cut, err)
		}
		if re3.Info().HasCheckpoint {
			t.Fatalf("checkpoint truncated to %d bytes was accepted", cut)
		}
		re3.Close()
	}
}

// TestMissingMiddleSegment deletes a middle segment: the records after
// the gap cannot be replayed (order is the contract), so recovery must
// keep only the contiguous prefix and remove the unreachable segments.
func TestMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(200)
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs)
	if l.Stats().Segments < 4 {
		t.Fatalf("need at least 4 segments, got %d", l.Stats().Segments)
	}
	segs := append([]segMeta(nil), l.segments...)
	l.Close()

	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatalf("removing middle segment: %v", err)
	}
	prefixLen := int(segs[1].firstSeq - 1)

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	info := re.Info()
	if info.DroppedSegments != len(segs)-2 {
		t.Fatalf("dropped %d segments, want %d (info %+v)", info.DroppedSegments, len(segs)-2, info)
	}
	seqs, got := collect(t, re)
	if len(got) != prefixLen {
		t.Fatalf("recovered %d records, want the %d-record contiguous prefix", len(got), prefixLen)
	}
	for i := range got {
		if seqs[i] != uint64(i+1) || !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("prefix record %d differs", i)
		}
	}
}

// TestStaleCoveredSegmentBeforeGap: a covered segment left behind a
// gap below the checkpoint boundary — what an archive restore holds
// when the segment after it was pruned locally before it was ever
// shipped — must not make the tail unreachable, whether the stale
// segment is intact or torn.
func TestStaleCoveredSegmentBeforeGap(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			recs := payloads(120)
			l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendAll(t, l, recs[:80])
			if l.Stats().Segments < 4 {
				t.Fatalf("need at least 4 segments, got %d", l.Stats().Segments)
			}
			stale := l.segments[1]
			raw, err := os.ReadFile(filepath.Join(dir, stale.name))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.SaveCheckpoint([]byte("state at 80")); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			appendAll(t, l, recs[80:])
			l.Close()

			// Only the second segment comes back: the gap after it lies
			// entirely below the checkpoint boundary.
			if torn {
				raw = raw[:len(raw)-3]
			}
			if err := os.WriteFile(filepath.Join(dir, stale.name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if info := re.Info(); info.DroppedSegments != 0 || info.DroppedBytes != 0 {
				t.Fatalf("recovery dropped data past a covered gap: %+v", info)
			}
			seqs, got := collect(t, re)
			if len(got) != 40 || seqs[0] != 81 {
				t.Fatalf("replayed %d records from seq %v, want 40 from 81", len(got), seqs)
			}
			for i := range got {
				if !bytes.Equal(got[i], recs[80+i]) {
					t.Fatalf("tail record %d differs", i)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, stale.name)); !os.IsNotExist(err) {
				t.Fatalf("covered segment %s survived recovery (stat err %v)", stale.name, err)
			}
		})
	}
}

// TestFaultInjectedTornWrite drives the torn-write crash through the
// FaultFS harness: the append fails mid-write, the log wedges, and a
// clean reopen of the same directory recovers every record that was
// acknowledged before the fault.
func TestFaultInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, err := Open(Options{Dir: dir, FS: ffs, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := payloads(25)
	appendAll(t, l, recs[:20])

	ffs.Inject(Fault{Op: "write", Torn: 7})
	if _, err := l.Append(recs[20]); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append under write fault = %v, want ErrInjected", err)
	}
	if !ffs.Fired() {
		t.Fatal("fault did not fire")
	}
	// The log is wedged: the tail holds a torn record only recovery
	// can repair.
	if _, err := l.Append(recs[21]); err == nil {
		t.Fatal("Append succeeded on a wedged log")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded on a wedged log")
	}
	if err := l.SaveCheckpoint([]byte("x")); err == nil {
		t.Fatal("SaveCheckpoint succeeded on a wedged log")
	}
	l.Close()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	info := re.Info()
	if info.RecordsReplayable != 20 {
		t.Fatalf("recovered %d records, want the 20 acknowledged ones (info %+v)", info.RecordsReplayable, info)
	}
	if info.DroppedBytes != 7 {
		t.Fatalf("dropped %d bytes, want the 7 torn ones", info.DroppedBytes)
	}
	seqs, got := collect(t, re)
	for i := range got {
		if seqs[i] != uint64(i+1) || !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("recovered record %d differs", i)
		}
	}
}

// TestFaultInjectedSyncError asserts a failed fsync surfaces to the
// caller — the coalescer turns it into a failed acknowledgement, so a
// client never gets a 200 for data that may not be durable.
func TestFaultInjectedSyncError(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, err := Open(Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.Inject(Fault{Op: "sync"})
	if err := l.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync under fault = %v, want ErrInjected", err)
	}
	ffs.Clear()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after clearing fault: %v", err)
	}
}

// TestFaultInjectedCheckpointRename asserts a checkpoint whose rename
// fails leaves no trace: the old checkpoint (or none) stays in effect
// and the temporary file does not survive the next open.
func TestFaultInjectedCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, err := Open(Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, payloads(10))
	ffs.Inject(Fault{Op: "rename"})
	if err := l.SaveCheckpoint([]byte("doomed")); !errors.Is(err, ErrInjected) {
		t.Fatalf("SaveCheckpoint under rename fault = %v, want ErrInjected", err)
	}
	ffs.Clear()
	l.Close()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Info().HasCheckpoint {
		t.Fatal("a failed checkpoint became visible")
	}
	if re.Info().RecordsReplayable != 10 {
		t.Fatalf("recovered %d records, want 10", re.Info().RecordsReplayable)
	}
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == tmpExt {
			t.Fatalf("temporary checkpoint file %s survived recovery", ent.Name())
		}
	}
}

// TestCheckpointNewerThanRecords models losing the unsynced tail in
// NoSync mode: the checkpoint covers sequence numbers no surviving
// record reaches. Appends must restart at the checkpoint boundary in a
// fresh segment — never leave a sequence gap inside one.
func TestCheckpointNewerThanRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, payloads(10))
	if err := l.SaveCheckpoint([]byte("state at 10")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	segName := l.segments[0].name
	l.Close()
	// The crash eats the whole segment (it was never synced).
	if err := os.Remove(filepath.Join(dir, segName)); err != nil {
		t.Fatalf("removing segment: %v", err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	info := re.Info()
	if !info.HasCheckpoint || info.CheckpointSeq != 11 || info.RecordsReplayable != 0 {
		t.Fatalf("recovery info %+v, want checkpoint at 11 and nothing to replay", info)
	}
	seq, err := re.Append([]byte("continues"))
	if err != nil || seq != 11 {
		t.Fatalf("Append = (%d, %v), want seq 11", seq, err)
	}
	if err := re.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	re.Close()

	again, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer again.Close()
	seqs, got := collect(t, again)
	if len(got) != 1 || seqs[0] != 11 || string(got[0]) != "continues" {
		t.Fatalf("replay after gap = (%v, %q)", seqs, got)
	}
}

// TestCheckpointBridgesTruncatedTail is the double-crash regression:
// a torn tail truncated BELOW the checkpoint boundary leaves the stale
// pre-checkpoint segment on disk while appends restart in a fresh
// segment at ckptNext. The second recovery sees a sequence gap between
// the two segments and must treat the checkpoint as bridging it —
// never drop the fresh segment's acknowledged, fsynced records.
func TestCheckpointBridgesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, payloads(10))
	if err := l.SaveCheckpoint([]byte("state at 10")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	segName := l.segments[0].name
	l.Close()

	// Crash one: tear the tail mid-record so recovery truncates the
	// segment back below the checkpoint boundary (seq 11).
	segPath := filepath.Join(dir, segName)
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(segPath, fi.Size()-5); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	info := re.Info()
	if !info.HasCheckpoint || info.CheckpointSeq != 11 || info.TruncatedSegment == "" || info.RecordsReplayable != 0 {
		t.Fatalf("first recovery info %+v, want truncated tail under checkpoint 11", info)
	}
	// The truncated tail cannot host seq 11 (there would be a gap
	// inside it), so this lands in a fresh segment — while the stale
	// one stays behind until the next prune.
	seq, err := re.Append([]byte("survivor"))
	if err != nil || seq != 11 {
		t.Fatalf("Append = (%d, %v), want seq 11", seq, err)
	}
	if err := re.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	re.Close()

	// Crash two: recovery over [stale 1..9][fresh 11..] must keep the
	// fresh segment — the checkpoint covers the gap.
	again, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	info = again.Info()
	if info.DroppedSegments != 0 {
		t.Fatalf("second recovery dropped %d segment(s): %+v", info.DroppedSegments, info)
	}
	seqs, got := collect(t, again)
	if len(got) != 1 || seqs[0] != 11 || string(got[0]) != "survivor" {
		t.Fatalf("second recovery replay = (%v, %q), want seq 11 %q", seqs, got, "survivor")
	}
	// The sequence keeps extending past the bridge, and a checkpoint
	// finally prunes the stale pre-checkpoint segment away.
	if seq, err := again.Append([]byte("onward")); err != nil || seq != 12 {
		t.Fatalf("Append after bridge = (%d, %v), want seq 12", seq, err)
	}
	if err := again.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := again.SaveCheckpoint([]byte("state at 12")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("stale pre-checkpoint segment survived the prune (err %v)", err)
	}
	again.Close()

	final, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("third recovery: %v", err)
	}
	defer final.Close()
	if info := final.Info(); info.DroppedSegments != 0 || info.RecordsReplayable != 0 || info.CheckpointSeq != 13 {
		t.Fatalf("third recovery info %+v, want clean log under checkpoint 13", info)
	}
}

// TestParseRecordLengthBound pins the corruption guard at exactly
// maxRecordBytes: a hostile length prefix at or past the bound must be
// rejected before any int conversion can overflow on 32-bit platforms.
func TestParseRecordLengthBound(t *testing.T) {
	for _, n := range []uint64{maxRecordBytes, maxRecordBytes - 1, 1<<32 - 1} {
		data := make([]byte, 64)
		data[0] = byte(n)
		data[1] = byte(n >> 8)
		data[2] = byte(n >> 16)
		data[3] = byte(n >> 24)
		if _, _, ok := parseRecord(data, 1); ok {
			t.Fatalf("parseRecord accepted a record claiming %d bytes", n)
		}
	}
}

func TestNoSyncMode(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, err := Open(Options{Dir: dir, FS: ffs, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// With NoSync, a sync fault can never fire through Sync().
	ffs.Inject(Fault{Op: "sync", Sticky: true})
	appendAll(t, l, payloads(15))
	if ffs.Fired() {
		t.Fatal("NoSync mode issued an fsync on the append path")
	}
	if l.Stats().Syncs != 0 {
		t.Fatalf("Stats counted %d syncs under NoSync", l.Stats().Syncs)
	}
	// Checkpoints still sync: durability of the checkpoint file itself
	// is never traded away.
	ffs.Clear()
	if err := l.SaveCheckpoint([]byte("ck")); err != nil {
		t.Fatalf("SaveCheckpoint under NoSync: %v", err)
	}
	l.Close()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !re.Info().HasCheckpoint {
		t.Fatal("checkpoint written under NoSync did not survive")
	}
}

func TestEmptyAndFreshDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open on a fresh nested dir: %v", err)
	}
	info := l.Info()
	if info.HasCheckpoint || info.RecordsReplayable != 0 || info.SegmentsScanned != 0 {
		t.Fatalf("fresh dir recovery info %+v", info)
	}
	if seqs, _ := collect(t, l); len(seqs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(seqs))
	}
	seq, err := l.Append([]byte("first"))
	if err != nil || seq != 1 {
		t.Fatalf("first Append = (%d, %v), want seq 1", seq, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := l.Stats()
	if st.Segments != 1 || st.AppendedRecords != 1 || st.NextSeq != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
	l.Close()
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log = %v, want ErrClosed", err)
	}
}
