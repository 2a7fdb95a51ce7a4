package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseRecord feeds record framing arbitrary bytes. parseRecord must
// never panic, and an accepted record must frame exactly: total is
// 16 + len(payload), fits in data, and the payload is data[12:total-4].
// The same bytes, written after a valid segment header, must recover
// through Open + Replay without a panic and replay exactly the prefix
// of records parseRecord accepts.
func FuzzParseRecord(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range append(payloads(3), []byte{}) {
		if _, err := l.Append(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	records := seg[segHeaderLen:]
	f.Add([]byte{})
	f.Add(records)
	f.Add(records[:len(records)-1])
	f.Add(records[:len(records)/2])
	flipped := bytes.Clone(records)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	walDir := filepath.Join(f.TempDir(), "wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		// Framing of one record.
		if payload, total, ok := parseRecord(data, 1); ok {
			if total != 16+len(payload) || total > len(data) {
				t.Fatalf("accepted record: total %d, payload %d bytes, data %d bytes", total, len(payload), len(data))
			}
			if !bytes.Equal(payload, data[12:total-4]) {
				t.Fatalf("payload %x is not data[12:%d]", payload, total-4)
			}
		}

		// The valid prefix a recovery must keep.
		var want [][]byte
		off := 0
		for off < len(data) {
			payload, n, ok := parseRecord(data[off:], uint64(len(want))+1)
			if !ok {
				break
			}
			want = append(want, payload)
			off += n
		}

		// One directory per fuzz process, emptied per input: a fresh
		// t.TempDir per input would cost more than the recovery itself.
		if err := os.RemoveAll(walDir); err != nil {
			t.Fatal(err)
		}
		header := make([]byte, segHeaderLen)
		copy(header, segMagic[:])
		binary.LittleEndian.PutUint64(header[8:], 1)
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir, segName(1)), append(header, data...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: walDir, NoSync: true})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		var got [][]byte
		if err := l.Replay(func(seq uint64, payload []byte) error {
			if seq != uint64(len(got))+1 {
				t.Fatalf("replayed seq %d as record %d", seq, len(got)+1)
			}
			got = append(got, bytes.Clone(payload))
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, the valid prefix holds %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: replayed %x, want %x", i+1, got[i], want[i])
			}
		}
	})
}
