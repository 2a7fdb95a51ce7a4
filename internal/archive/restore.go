package archive

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/densitymountain/edmstream/internal/wal"
)

// ErrLocalState is returned by Restore when the data directory already
// holds WAL files: local state is the durability authority, and a
// restore over it could only lose acknowledged records.
var ErrLocalState = errors.New("archive: data directory already holds WAL state")

// RestoreInfo reports what a disaster restore fetched and wrote.
type RestoreInfo struct {
	// Checkpoints and Segments count the objects materialized locally.
	Checkpoints int `json:"checkpoints"`
	Segments    int `json:"segments"`
	// Bytes is the total written into the data directory (decompressed).
	Bytes int64 `json:"bytes"`
	// BadObjects counts remote objects skipped as undecodable — the
	// partial-upload debris a non-atomic remote can hold. wal.Open's
	// own validation decides what the surviving set proves.
	BadObjects int `json:"bad_objects"`
	// Retried counts per-object download retries against a flaky
	// remote.
	Retried int `json:"retried"`
	// DurationSeconds is the wall time of the whole restore.
	DurationSeconds float64 `json:"duration_seconds"`
}

// restoreAttempts and restoreRetry bound the per-object download
// retries. A flaky remote (the drill's periodic get faults) is
// survivable; a persistent transport failure aborts the restore with
// an error — the caller can re-run it, nothing local was acknowledged
// yet.
const restoreAttempts = 6

var restoreRetry = wal.RetryPolicy{BaseDelay: 25 * time.Millisecond, MaxDelay: 500 * time.Millisecond}

// Restore rebuilds an empty WAL directory from the object store: every
// remote checkpoint and segment is downloaded (with bounded per-object
// retries), decompressed when shipped gzipped, and written atomically
// under its local file name. It deliberately re-creates the on-disk
// layout instead of interpreting it — the subsequent wal.Open applies
// the exact CRC, magic and sequence-continuity rules of local crash
// recovery, so a stale tail, a missing suffix or partial-upload debris
// degrade to a shorter consistent prefix, never to corruption.
//
// All checkpoints are restored, not just the newest: wal.Open's
// fall-back-across-corrupt-checkpoints logic needs the older ones when
// the newest object turns out damaged.
func Restore(store ObjectStore, dir string) (RestoreInfo, error) {
	begin := time.Now()
	var info RestoreInfo
	if store == nil {
		return info, errors.New("archive: Restore requires a store")
	}
	if dir == "" {
		return info, errors.New("archive: Restore requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, fmt.Errorf("archive: creating data directory: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return info, fmt.Errorf("archive: inspecting data directory: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if _, ok := wal.ParseSegmentFileName(name); ok {
			return info, fmt.Errorf("%w (%s)", ErrLocalState, name)
		}
		if _, ok := wal.ParseCheckpointFileName(name); ok {
			return info, fmt.Errorf("%w (%s)", ErrLocalState, name)
		}
	}

	keys, err := listRetry(store, &info)
	if err != nil {
		return info, err
	}
	// Group remote keys by the local file they restore to: the same
	// segment can exist both plain and gzipped when the shipper's
	// Compress flag was toggled across restarts. Only one variant may
	// win per name — the one holding the longer decompressed payload,
	// since segments are append-only and the longer copy carries a
	// superset of the shorter one's valid prefix. List order must never
	// decide (it would always favour .gz, even when stale and shorter).
	type target struct {
		name   string
		isCkpt bool
	}
	byName := make(map[target][]string)
	var order []target
	for _, key := range keys {
		name, isCkpt, ok := localName(key)
		if !ok {
			continue // foreign object under the prefix; not ours to judge
		}
		tgt := target{name: name, isCkpt: isCkpt}
		if _, seen := byName[tgt]; !seen {
			order = append(order, tgt)
		}
		byName[tgt] = append(byName[tgt], key)
	}
	for _, tgt := range order {
		var best []byte
		haveBest := false
		for _, key := range byName[tgt] {
			data, err := getRetry(store, key, &info)
			if errors.Is(err, ErrNotExist) {
				continue // pruned after the listing; its replacement is shipped
			}
			if err != nil {
				return info, fmt.Errorf("archive: restoring %q: %w", key, err)
			}
			if strings.HasSuffix(key, gzSuffix) {
				plain, gerr := gunzip(data)
				if gerr != nil {
					// Partial-upload debris: a truncated gzip stream fails
					// its own framing. Skip it — for segments the WAL's
					// continuity rules bound the loss, for checkpoints an
					// older restored one takes over.
					info.BadObjects++
					continue
				}
				data = plain
			}
			if !haveBest || len(data) > len(best) {
				best, haveBest = data, true
			}
		}
		if !haveBest {
			continue
		}
		if err := writeAtomic(dir, tgt.name, best); err != nil {
			return info, err
		}
		if tgt.isCkpt {
			info.Checkpoints++
		} else {
			info.Segments++
		}
		info.Bytes += int64(len(best))
	}
	if err := syncDir(dir); err != nil {
		return info, err
	}
	info.DurationSeconds = time.Since(begin).Seconds()
	return info, nil
}

// localName maps a remote key back to its local WAL file name,
// validating the name shape so a stray object cannot smuggle an
// arbitrary path into the data directory.
func localName(key string) (name string, isCkpt bool, ok bool) {
	name = strings.TrimSuffix(key, gzSuffix)
	switch {
	case strings.HasPrefix(name, segKeyPrefix):
		name = strings.TrimPrefix(name, segKeyPrefix)
		_, ok = wal.ParseSegmentFileName(name)
		return name, false, ok
	case strings.HasPrefix(name, ckptKeyPrefix):
		name = strings.TrimPrefix(name, ckptKeyPrefix)
		_, ok = wal.ParseCheckpointFileName(name)
		return name, true, ok
	}
	return "", false, false
}

func listRetry(store ObjectStore, info *RestoreInfo) ([]string, error) {
	var lastErr error
	for attempt := 0; attempt < restoreAttempts; attempt++ {
		if attempt > 0 {
			info.Retried++
			time.Sleep(restoreRetry.Backoff(attempt))
		}
		keys, err := store.List("")
		if err == nil {
			return keys, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("archive: listing the remote: %w", lastErr)
}

func getRetry(store ObjectStore, key string, info *RestoreInfo) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < restoreAttempts; attempt++ {
		if attempt > 0 {
			info.Retried++
			time.Sleep(restoreRetry.Backoff(attempt))
		}
		data, err := store.Get(key)
		if err == nil {
			return data, nil
		}
		if errors.Is(err, ErrNotExist) {
			// Pruned between List and Get by another shipper: whatever
			// superseded it is in the listing too (or the next restore
			// attempt's).
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("still failing after %d attempts: %w", restoreAttempts, lastErr)
}

func gunzip(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	plain, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return plain, nil
}

// writeAtomic writes name into dir via temp-and-rename with an fsync,
// so an interrupted restore leaves no torn WAL files for the next
// attempt to misread.
func writeAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".restore-tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("archive: writing %s: %w", name, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("archive: writing %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("archive: publishing %s: %w", name, err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
