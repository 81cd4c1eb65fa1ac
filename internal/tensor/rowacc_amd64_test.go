//go:build !race

package tensor

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// hostPaths names the rowAccPacked paths this host can execute, widest
// first: the EVEX chunks only where the probe finds AVX-512F and VL, the VEX
// chunks only where it finds AVX, the SSE2 routine everywhere.
var hostPaths = func() []string {
	var paths []string
	if hasAVX512() {
		paths = append(paths, "evex")
	}
	if hasAVX() {
		paths = append(paths, "vex")
	}
	return append(paths, "sse2")
}()

func rowAccPaths() []string { return hostPaths }

// usePath makes rowAccPacked take the named path and returns what puts the
// probes' choice back: evex sets both bytes, vex turns EVEX off, sse2
// turns both off.
func usePath(path string) (restore func()) {
	wasEVEX, wasVEX := useEVEX, useVEX
	useEVEX = path == "evex"
	useVEX = path == "evex" || path == "vex"
	return func() { useEVEX, useVEX = wasEVEX, wasVEX }
}

// TestProbesMatchCPUInfo checks the two probes against the avx, avx512f
// and avx512vl flags the Linux kernel reports (it clears them where it
// does not save the state) and logs which tiers this host runs, so a CI
// log shows whether the EVEX chunks were exercised. It skips off Linux or
// when /proc/cpuinfo cannot be read.
func TestProbesMatchCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no /proc/cpuinfo off Linux")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if got, want := hasAVX(), flags["avx"]; got != want {
		t.Errorf("hasAVX() = %v, /proc/cpuinfo avx flag %v", got, want)
	}
	if got, want := hasAVX512(), flags["avx512f"] && flags["avx512vl"]; got != want {
		t.Errorf("hasAVX512() = %v, /proc/cpuinfo avx512f and avx512vl flags %v", got, want)
	}
	t.Logf("avx %v, avx512f %v, avx512vl %v: rowAccPacked paths %v, the probes pick %v",
		flags["avx"], flags["avx512f"], flags["avx512vl"], rowAccPaths(), rowAccPaths()[0])
}
