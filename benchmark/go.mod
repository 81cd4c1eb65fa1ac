// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles or runs it. Its import
// path keeps the parent's prefix, which is what lets it import
// gnnrdm/internal/...; the parent is found through the replace line, so the
// build fails in a directory that holds only the benchmark.
module gnnrdm/benchmark

go 1.22

require gnnrdm v0.0.0

replace gnnrdm => ../
