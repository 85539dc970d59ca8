// Checkpoint persistence: the Study aggregate state serialized as JSON
// and written atomically (temp file + fsync + rename + parent-directory
// fsync), so a reader never observes a torn checkpoint, a crash
// mid-write leaves the previous checkpoint intact, and a crash right
// after the rename cannot lose the new directory entry. Go encodes
// float64 values in their shortest exact round-trip form, so loading a
// checkpoint reconstructs the exact-sum mean and sketch bucket state
// bit-for-bit — the basis of the resume-equals-uninterrupted guarantee.
package population

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// SaveCheckpoint atomically replaces path with st's JSON encoding and
// makes the replacement durable (see WriteFileAtomic).
func SaveCheckpoint(path string, st *Study) error {
	blob, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return fmt.Errorf("population: encode checkpoint: %w", err)
	}
	if err := WriteFileAtomic(path, blob); err != nil {
		return fmt.Errorf("population: checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces path with blob and makes the replacement
// durable: the data is fsynced before the rename and the parent
// directory is fsynced after it, so a crash at any point leaves either
// the old complete file or the new one, never a torn one.
func WriteFileAtomic(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //bce:errok best-effort cleanup; a no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close() //bce:errok the write error already propagates; this close only releases the fd
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //bce:errok the sync error already propagates; this close only releases the fd
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename is atomic but not durable until the directory entry
	// itself reaches disk: without this fsync a crash after the rename
	// can roll the directory back and lose the file entirely.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	return nil
}

// syncDir fsyncs a directory. Filesystems that cannot sync directories
// (some network and FUSE mounts report EINVAL or ENOTSUP) get
// best-effort semantics — the rename still happened; only crash
// durability is reduced, and there is nothing more we can do there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //bce:errok read-only fd; close failure cannot lose data
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Study, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	st := &Study{}
	if err := json.Unmarshal(blob, st); err != nil {
		return nil, fmt.Errorf("population: parse checkpoint %s: %w", path, err)
	}
	if st.Version != CheckpointVersion {
		return nil, fmt.Errorf("population: checkpoint %s has version %d, want %d",
			path, st.Version, CheckpointVersion)
	}
	if len(st.Combos) == 0 || len(st.Aggs) != len(st.Combos) {
		return nil, fmt.Errorf("population: checkpoint %s is malformed: %d combos, %d aggregates",
			path, len(st.Combos), len(st.Aggs))
	}
	if want := len(st.Combos) * (len(st.Combos) - 1) / 2; len(st.Pairs) != want {
		return nil, fmt.Errorf("population: checkpoint %s is malformed: %d pairs, want %d",
			path, len(st.Pairs), want)
	}
	if st.Lo < 0 {
		return nil, fmt.Errorf("population: checkpoint %s is malformed: negative shard offset %d",
			path, st.Lo)
	}
	if st.Done < 0 || st.Target < 0 || st.Done > st.Target {
		return nil, fmt.Errorf("population: checkpoint %s is malformed: done %d of target %d",
			path, st.Done, st.Target)
	}
	return st, nil
}
