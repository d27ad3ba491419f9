package repl

import (
	"encoding/json"
	"errors"
	"io"
	"os"

	"btreeperf/internal/pagestore"
)

// State is a node's persisted replication lineage, the file a follower's
// Hello is built from. On a follower it is the applied position: which
// leader epoch the seqs belong to and how far each shard got. On a leader
// it is the epoch the node leads (Seqs empty) — persisted so that when a
// killed leader's disk rejoins the cluster as a follower, its Hello
// presents the dead lineage's epoch and the new leader forces a snapshot
// resync instead of tailing oplog onto diverged state (the old disk may
// hold writes the new leader never acknowledged). It lives next to the
// engine, not inside it, because a follower's own journal numbers local
// appends (snapshot loads included), which is not the leader's sequence
// space.
type State struct {
	ID    uint64  `json:"id"`    // persistent node identity
	Epoch uint64  `json:"epoch"` // lineage: leading it, or applying from it
	Seqs  []int64 `json:"seqs"`  // per-shard applied leader seqs (followers)
}

// LoadState reads the state file at path through fs (nil = the real file
// system). A missing file is a fresh node: the zero State, whose epoch 0
// forces a full snapshot resync against any live leader. A file that does
// not decode — torn by a power loss under an older writer, or foreign — is
// reported through logf and means the same: resyncing is always sound,
// staying down until an operator intervenes is not.
func LoadState(fs pagestore.FS, path string, logf func(string, ...any)) (State, error) {
	if fs == nil {
		fs = pagestore.OSFS
	}
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return State{}, nil
	}
	if err != nil {
		return State{}, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return State{}, err
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		logf("repl: state file %s does not decode (%v): resyncing from a full snapshot", path, err)
		return State{}, nil
	}
	return st, nil
}

// Save replaces the state file at path: written to path+".tmp", fsynced,
// then renamed, so a crash leaves the old state or the new one, never a
// mixture.
func (st State) Save(fs pagestore.FS, path string) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return pagestore.ReplaceFile(fs, path+".tmp", path, data)
}
