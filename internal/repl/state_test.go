package repl

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"btreeperf/internal/pagestore"
)

// TestStateFile pins the state file's format and its reading rules: the
// JSON btserved has always written loads unchanged, a missing file is a
// fresh node, and a file that does not decode — cut short, or garbage —
// is logged and means the same as a missing one (epoch 0: the leader
// answers with a full snapshot) instead of keeping the node down.
func TestStateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db.repl")
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, format) }

	if st, err := LoadState(nil, path, logf); err != nil || !reflect.DeepEqual(st, State{}) {
		t.Fatalf("missing file = %+v, %v; want the zero state", st, err)
	}
	const legacy = `{"id":1791070672135122506,"epoch":7,"seqs":[41,0,9]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	want := State{ID: 1791070672135122506, Epoch: 7, Seqs: []int64{41, 0, 9}}
	if st, err := LoadState(nil, path, logf); err != nil || !reflect.DeepEqual(st, want) {
		t.Fatalf("legacy file = %+v, %v; want %+v", st, err, want)
	}
	if err := want.Save(nil, path); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != legacy {
		t.Fatalf("Save wrote %s, want the bytes it has always written: %s", got, legacy)
	}
	if len(logged) != 0 {
		t.Fatalf("healthy loads logged %q", logged)
	}
	for cut := 0; cut < len(legacy); cut++ {
		if err := os.WriteFile(path, []byte(legacy[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		logged = logged[:0]
		st, err := LoadState(nil, path, logf)
		if err != nil || !reflect.DeepEqual(st, State{}) {
			t.Fatalf("file cut at byte %d = %+v, %v; want the zero state (resync)", cut, st, err)
		}
		if len(logged) != 1 || !strings.Contains(logged[0], "resync") {
			t.Fatalf("file cut at byte %d: logged %q, want one line saying it resyncs", cut, logged)
		}
	}
}

// TestStateSaveCrashSweep cuts a Save over an existing state at every
// syscall and tears its write at every length: the survivor always decodes,
// to the old position or to the new one.
func TestStateSaveCrashSweep(t *testing.T) {
	oldSt := State{ID: 3, Epoch: 7, Seqs: []int64{10, 20}}
	newSt := State{ID: 3, Epoch: 7, Seqs: []int64{11, 25}}
	size := int64(len(`{"id":3,"epoch":7,"seqs":[11,25]}`))
	run := func(plan pagestore.FailPlan) {
		path := filepath.Join(t.TempDir(), "state")
		if err := oldSt.Save(nil, path); err != nil {
			t.Fatal(err)
		}
		fs := pagestore.NewFailFS(nil, plan)
		err := newSt.Save(fs, path)
		st, lerr := LoadState(nil, path, func(format string, args ...any) {
			t.Errorf("plan %+v: survivor does not decode: "+format, append([]any{plan}, args...)...)
		})
		if lerr != nil {
			t.Fatal(lerr)
		}
		want := oldSt
		if err == nil {
			want = newSt
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("plan %+v (save: %v): survivor %+v, want %+v", plan, err, st, want)
		}
	}
	for n := int64(1); n <= 4; n++ { // write, fsync, rename, none
		run(pagestore.FailPlan{CrashAt: n})
	}
	for torn := 0; int64(torn) < size; torn++ {
		run(pagestore.FailPlan{FailWriteAt: 1, TornBytes: torn})
	}
}
