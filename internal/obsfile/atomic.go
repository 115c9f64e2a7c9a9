package obsfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"lineup/internal/history"
)

// AtomicWriteFile writes a file by streaming through write into a temporary
// file in the destination directory, syncing it, renaming it over path, and
// syncing the parent directory. A reader never observes a partially written
// file: it sees either the old contents or the complete new contents, even if
// the writing process is killed mid-write. The file sync before the rename
// and the directory sync after it make the sequence crash-durable, not just
// kill-atomic: after a power loss or kernel crash the rename either never
// happened or points at fully persisted contents, so checkpoints and trace
// files cannot come back empty or torn. On any error the temporary file is
// removed and the destination is left untouched.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("obsfile: creating temp file in %s: %w", dir, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("obsfile: syncing %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("obsfile: closing %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obsfile: renaming into place: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return err
	}
	return nil
}

// AtomicWriteJSON writes v as indented JSON through AtomicWriteFile: how the
// checkpoints of a check and of serve, the dist manifest and the unit reports
// are journaled.
func AtomicWriteJSON(path string, v any) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// syncDir persists a directory entry update (the rename) to stable storage.
// Some platforms and filesystems refuse fsync on directories; that leaves
// durability no worse than before and is not an error.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("obsfile: opening directory %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) && !errors.Is(err, syscall.EBADF) {
		return fmt.Errorf("obsfile: syncing directory %s: %w", dir, err)
	}
	return nil
}

// WriteFileAtomic writes an observation file atomically (see
// AtomicWriteFile).
func WriteFileAtomic(path string, spec *history.Spec) error {
	return AtomicWriteFile(path, func(w io.Writer) error { return Write(w, spec) })
}

// WriteTraceFile writes a JSONL history trace atomically (see
// AtomicWriteFile).
func WriteTraceFile(path string, h *history.History) error {
	return AtomicWriteFile(path, func(w io.Writer) error { return WriteTrace(w, h) })
}
