// The benchmark is a module of its own so that the root module's
// `go build ./...` and `go test ./...` do not see it. Its path sits under
// the root module's, which is what lets it import btreeperf/internal/...
module btreeperf/bench

go 1.24

require btreeperf v0.0.0

replace btreeperf => ../
