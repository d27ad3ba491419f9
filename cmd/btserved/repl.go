package main

import (
	"path/filepath"

	"btreeperf/internal/server"
)

// replOptions turns the replication flags into the server's role options
// (internal/server/repl.go owns the roles themselves): leader with
// -repl-listen, follower with -follow, promotable follower with both.
// Unless -repl-state names it, a disk node's state file sits beside its
// data: dataPath+".repl" for one shard, repl-state.json inside the data
// directory for several. A mem node has no dataPath and never persists.
func replOptions(listen, follow string, retainMB int64, statePath string, resync bool,
	dataPath string, shards int, logf func(string, ...any),
) server.ReplOptions {
	if statePath == "" && dataPath != "" && (listen != "" || follow != "") {
		statePath = dataPath + ".repl"
		if shards > 1 {
			statePath = filepath.Join(dataPath, "repl-state.json")
		}
	}
	return server.ReplOptions{
		Listen:      listen,
		Follow:      follow,
		RetainBytes: retainMB << 20,
		StatePath:   statePath,
		Resync:      resync,
		Logf:        logf,
	}
}
