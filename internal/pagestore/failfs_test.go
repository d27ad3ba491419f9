package pagestore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openVia(t *testing.T, fs FS, path string) File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFailFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := NewFailFS(nil, FailPlan{FailWriteAt: 2, TornBytes: 3})
	f := openVia(t, fs, path)
	defer f.Close()

	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.WriteAt([]byte("world"), 5)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: err = %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("torn write persisted %d bytes, want 3", n)
	}
	// The real file holds the full first write plus the torn prefix.
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "hellowor" {
		t.Fatalf("file contents %q, want %q", got, "hellowor")
	}
	// Later writes are unaffected (the plan fired once).
	if _, err := f.WriteAt([]byte("!"), 8); err != nil {
		t.Fatalf("write 3: %v", err)
	}
}

func TestFailFSSyncError(t *testing.T) {
	dir := t.TempDir()
	fs := NewFailFS(nil, FailPlan{FailSyncAt: 2})
	f := openVia(t, fs, filepath.Join(dir, "f"))
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 2: err = %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3: %v", err)
	}
}

func TestFailFSCrashFreezesEverything(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := NewFailFS(nil, FailPlan{CrashAt: 3})
	f := openVia(t, fs, path)
	defer f.Close()

	if _, err := f.WriteAt([]byte("aa"), 0); err != nil { // op 1
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("bb"), 2); !errors.Is(err, ErrCrashed) { // op 3: crash
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("fs not marked crashed")
	}
	// Everything after the crash fails, reads included, and nothing lands.
	if _, err := f.WriteAt([]byte("cc"), 4); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v", err)
	}
	var buf [2]byte
	if _, err := f.ReadAt(buf[:], 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: %v", err)
	}
	if _, err := fs.OpenFile(path, os.O_RDWR, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open: %v", err)
	}
	if err := fs.Rename(path, path+"x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aa" {
		t.Fatalf("frozen file holds %q, want %q", got, "aa")
	}
	if fs.Ops() != 3 {
		t.Fatalf("Ops = %d, want 3", fs.Ops())
	}
}

// TestFailFSUnderStore drives a Store through the failpoint layer: a
// planned sync failure must surface through Store.Sync.
func TestFailFSUnderStore(t *testing.T) {
	dir := t.TempDir()
	fs := NewFailFS(nil, FailPlan{FailSyncAt: 2}) // the first makes the new store's meta page durable
	s, err := OpenFS(filepath.Join(dir, "s.db"), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Store.Sync = %v, want ErrInjected", err)
	}
}

func TestFailFSReadError(t *testing.T) {
	fs := NewFailFS(nil, FailPlan{FailReadAt: 2})
	f := openVia(t, fs, filepath.Join(t.TempDir(), "f"))
	defer f.Close()
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if n, err := f.ReadAt(buf, 0); !errors.Is(err, ErrInjected) || n != 0 {
		t.Fatalf("read 2 = %d, %v, want nothing and ErrInjected", n, err)
	}
	// The plan fired once; mutating syscalls were never affected.
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("read 3 = %q, %v", buf, err)
	}
	if fs.Reads() != 3 || fs.Ops() != 1 {
		t.Fatalf("counted %d reads and %d mutating syscalls, want 3 and 1", fs.Reads(), fs.Ops())
	}
}

// TestReplaceFileCrashSweep crashes ReplaceFile at every syscall, and tears
// its one write at every length. Whatever survives under the final name is
// the old content or the whole new content, never a mixture; the new
// content is there only once its fsync really ran (a rename ahead of the
// fsync would publish bytes a power loss can still take back); the
// pre-rename hook ran after that fsync and before the rename; and a
// failure is reported with the handle closed.
func TestReplaceFileCrashSweep(t *testing.T) {
	oldData, newData := []byte("old contents"), []byte("the new contents, longer")
	run := func(t *testing.T, plan FailPlan) {
		path := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(path, oldData, 0o644); err != nil {
			t.Fatal(err)
		}
		fs := NewFailFS(nil, plan)
		synced, hookAfterSync := false, false
		fs.AroundSync = func(name string, f File) error {
			synced = true
			return f.Sync()
		}
		f, err := ReplaceFile(fs, path+".tmp", path, newData, func() error {
			hookAfterSync = synced
			got, _ := os.ReadFile(path)
			if string(got) != string(oldData) {
				t.Errorf("pre-rename hook saw %q under the final name, want the old contents", got)
			}
			return nil
		})
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		switch {
		case err != nil:
			if f != nil {
				t.Errorf("failed replace returned a handle")
			}
			if string(got) != string(oldData) {
				t.Errorf("failed replace (%v) left %q under the final name, want the old contents", err, got)
			}
		case string(got) != string(newData) || !synced || !hookAfterSync:
			t.Errorf("replace succeeded with %q under the final name (fsync ran: %v, hook after it: %v)", got, synced, hookAfterSync)
		default:
			f.Close()
		}
	}
	probe := NewFailFS(nil, FailPlan{})
	dir := t.TempDir()
	f, err := ReplaceFile(probe, filepath.Join(dir, "f.tmp"), filepath.Join(dir, "f"), newData, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	total := probe.Ops()
	if total != 3 {
		t.Fatalf("ReplaceFile made %d mutating syscalls, want write, fsync, rename", total)
	}
	for n := int64(1); n <= total+1; n++ { // total+1: no crash at all
		run(t, FailPlan{CrashAt: n})
	}
	for torn := 0; torn < len(newData); torn++ {
		run(t, FailPlan{FailWriteAt: 1, TornBytes: torn})
	}
	run(t, FailPlan{FailSyncAt: 1})
	t.Logf("swept %d crash points, %d torn writes and a failed fsync", total, len(newData))
}
