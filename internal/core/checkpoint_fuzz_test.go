package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/densitymountain/edmstream/internal/wal"
)

// fuzzCkptConfig is the configuration every FuzzDecodeCheckpoint input
// is decoded under (a checkpoint only restores into an identically
// configured engine).
var fuzzCkptConfig = Config{Radius: 0.8, Tau: 2.5, InitPoints: 50, EvolutionInterval: 0.25, SweepInterval: 0.2}

// walCheckpointFile returns the checkpoint file the WAL writes for
// payload, plain or gzip-compressed (EDMWCKGZ).
func walCheckpointFile(t testing.TB, payload []byte, compress bool) []byte {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, NoSync: true, CompressCheckpoints: compress})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SaveCheckpoint(payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil || len(names) != 1 {
		t.Fatalf("checkpoint files %v (%v), want one", names, err)
	}
	file, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// engineImage extracts the engine checkpoint from a fuzz input. A WAL
// checkpoint file (EDMWCK01, or EDMWCKGZ with a gzipped body) is
// unwrapped; anything else is taken as an engine checkpoint as is. The
// engine header's length and CRC are then rewritten to match the bytes
// that follow, so mutated payloads get past the checksum and reach gob
// decoding and restore's validation.
func engineImage(data []byte) ([]byte, bool) {
	const walHeader = 28
	if bytes.HasPrefix(data, []byte("EDMWCK")) && len(data) >= walHeader {
		body := data[walHeader:]
		if bytes.HasPrefix(data, []byte("EDMWCKGZ")) {
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				return nil, false
			}
			plain, err := io.ReadAll(io.LimitReader(zr, 1<<20))
			if err != nil {
				return nil, false
			}
			body = plain
		}
		data = body
	}
	img := bytes.Clone(data)
	if len(img) >= 20 && bytes.Equal(img[:8], ckptMagic[:]) {
		binary.LittleEndian.PutUint64(img[8:16], uint64(len(img)-20))
		binary.LittleEndian.PutUint32(img[16:20], crc32.ChecksumIEEE(img[20:]))
	}
	return img, true
}

// FuzzDecodeCheckpoint feeds DecodeCheckpoint mutated checkpoints.
// Decoding must never panic, whatever the bytes; a checkpoint it
// accepts must encode again, and an unmutated seed must restore into
// an engine that writes the same bytes back.
func FuzzDecodeCheckpoint(f *testing.F) {
	e, err := New(fuzzCkptConfig)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.InsertBatch(latticeStream(3, 400, 4)); err != nil {
		f.Fatal(err)
	}
	var ck bytes.Buffer
	if err := e.EncodeCheckpoint(&ck); err != nil {
		f.Fatal(err)
	}
	plain := ck.Bytes()
	f.Add(plain)
	f.Add(walCheckpointFile(f, plain, false))
	f.Add(walCheckpointFile(f, plain, true))
	f.Add(plain[:len(plain)/2])
	f.Add(plain[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		img, ok := engineImage(data)
		if !ok {
			return
		}
		e, err := DecodeCheckpoint(fuzzCkptConfig, bytes.NewReader(img))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := e.EncodeCheckpoint(&again); err != nil {
			t.Fatalf("re-encoding an accepted checkpoint: %v", err)
		}
		if bytes.Equal(img, plain) && !bytes.Equal(again.Bytes(), plain) {
			t.Fatal("the seed checkpoint does not restore into an engine that writes it back")
		}
	})
}

// TestDecodeCheckpointClaimedLength decodes a bare header that claims
// a payload at the length limit: it must fail as truncated without
// allocating anywhere near the claimed size.
func TestDecodeCheckpointClaimedLength(t *testing.T) {
	var header [20]byte
	copy(header[:8], ckptMagic[:])
	binary.LittleEndian.PutUint64(header[8:16], maxCheckpointBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeCheckpoint(fuzzCkptConfig, bytes.NewReader(append(header[:], 1, 2, 3)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated checkpoint decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a 23-byte input allocated %d bytes", grew)
	}
}
