//go:build !race

package tensor

// hostPaths names the rowAccPacked paths this host can execute: the VEX
// chunks only where the probe finds AVX, the SSE2 routine everywhere.
var hostPaths = func() []string {
	if hasAVX() {
		return []string{"vex", "sse2"}
	}
	return []string{"sse2"}
}()

func rowAccPaths() []string { return hostPaths }

// usePath makes rowAccPacked take the named path and returns what puts the
// probe's choice back.
func usePath(path string) (restore func()) {
	was := useVEX
	useVEX = path == "vex"
	return func() { useVEX = was }
}
