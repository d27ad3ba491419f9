package pagestore

// This file abstracts the store's file I/O behind small FS/File
// interfaces so tests can inject storage faults (see FailFS). The store
// itself, and internal/journal on top of it, only ever touch the disk
// through these interfaces; production code uses OSFS, the passthrough
// to the os package.

import (
	"io"
	"os"
)

// File is the slice of *os.File the storage layer needs. Implementations
// must be safe for the same concurrent use *os.File allows (independent
// ReadAt/WriteAt; Seek+Read/Write externally serialized by the caller).
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
}

// FS opens files and renames paths. It is the seam where tests inject
// torn writes, fsync failures, and simulated crashes underneath the
// pagestore and journal.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
}

// OSFS is the production FS: a passthrough to the os package.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove is available on the production FS (and FailFS) for the
// journal's segment pruning; it is not part of the FS interface, so
// minimal test FS implementations keep compiling — callers fall back to
// os.Remove when the method is absent.
func (osFS) Remove(name string) error { return os.Remove(name) }

// RemoveFile removes name through fs when it implements Remove (OSFS and
// FailFS both do, so crash sweeps see the syscall), falling back to
// os.Remove otherwise.
func RemoveFile(fs FS, name string) error {
	if r, ok := fs.(interface{ Remove(string) error }); ok {
		return r.Remove(name)
	}
	return os.Remove(name)
}

// CloneFile copies src over dst through fs, truncating dst to src's
// length. Recovery uses it to reset the scratch tree file from the
// checkpoint image; dst is not fsynced — callers that need durability
// sync it themselves.
func CloneFile(fs FS, src, dst string) error {
	if fs == nil {
		fs = OSFS
	}
	sf, err := fs.OpenFile(src, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer sf.Close()
	st, err := sf.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, st.Size())
	if _, err := io.ReadFull(io.NewSectionReader(sf, 0, st.Size()), buf); err != nil {
		return err
	}
	df, err := fs.OpenFile(dst, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer df.Close()
	if len(buf) > 0 {
		if _, err := df.WriteAt(buf, 0); err != nil {
			return err
		}
	}
	if err := df.Truncate(int64(len(buf))); err != nil {
		return err
	}
	return df.Close()
}

// ReplaceFile atomically replaces path with data: it writes data to tmp,
// fsyncs it, runs beforeRename (nil = nothing) and renames tmp over path,
// in that order — the new name is never visible before its bytes are
// durable, and beforeRename is where a caller commits something that must
// not outlive a failed replacement (the checkpoint image's own rename).
// It returns tmp's handle, now open on path, for a caller that keeps
// writing to the file; everyone else closes it. On an error the handle is
// closed and tmp is left behind for the caller's next start to remove.
func ReplaceFile(fs FS, tmp, path string, data []byte, beforeRename func() error) (File, error) {
	if fs == nil {
		fs = OSFS
	}
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	_, err = f.WriteAt(data, 0)
	if err == nil {
		err = f.Sync()
	}
	if err == nil && beforeRename != nil {
		err = beforeRename()
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
