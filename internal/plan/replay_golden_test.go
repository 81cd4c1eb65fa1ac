package plan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// TestReplayGolden pins the replay engine's every output bit at sizes
// the live fabric oracle cannot reach: the 16 sweep orderings at
// P=1024, flat and on 128x8:nvlink,ib; all 16 at P=13 with R_A=1 (one
// 13-rank column group, so column-group allgather rounds and ragged
// tiles replay); and a sparse-exchange schedule with its
// aggregate-before-communicate rewrite, on the lazy and the explicit
// ABC census. Every ordering writes one line per executor: the four
// Replay runs (sequential and overlapped, 0 and 2 epoch barriers), the
// DAGCost of PriceDAGEpochsCached and PriceOn's Cost. Each field is its
// exact bits in hex — a per-rank vector as the FNV-64a hash of its
// float64 bits in rank order — so a mismatch names the field:
//
//	go test -run TestReplayGolden ./internal/plan -update
func TestReplayGolden(t *testing.T) {
	var buf bytes.Buffer
	h := hw.A6000()
	for _, c := range replayGoldenCases(t) {
		pc := NewPriceCache()
		for i, s := range c.scheds {
			d := MustBuildDAG(s)
			cen := s.ApproxCensus(c.nnz)
			if c.eager {
				cen.ABCPairs, cen.NNZABC = s.ApproxABCPairs(c.nnz)
			}
			head := fmt.Sprintf("%s cfg=%02d", c.name, i)
			for _, barriers := range []int{0, 2} {
				for _, overlap := range []bool{false, true} {
					mode := "seq"
					if overlap {
						mode = "overlap"
					}
					r := d.Replay(cen, h, c.tp, 2, overlap, barriers, pc, nil, "")
					fmt.Fprintf(&buf, "%s %s/b%d Clocks=%s CommTime=%s ComputeTime=%s %s EpochClock=%s EpochComm=%s EpochCompute=%s EpochBytes=%s\n",
						head, mode, barriers, hashF(r.Clocks), hashF(r.CommTime), hashF(r.ComputeTime),
						meterBits(r.Meters), hashF(r.EpochClock...), hashF(r.EpochComm...), hashF(r.EpochCompute...),
						hexI(r.EpochBytes))
				}
			}
			dc := d.PriceDAGEpochsCached(cen, h, c.tp, 2, pc)
			fmt.Fprintf(&buf, "%s dagcost PerDevice=%s Makespan=%016x PerDeviceSeq=%s SeqTime=%016x\n",
				head, hashF(dc.PerDevice), math.Float64bits(dc.Makespan), hashF(dc.PerDeviceSeq), math.Float64bits(dc.SeqTime))
			cost := s.priceOn(c.nnz, h, c.tp, pc)
			hp := fnv.New64a()
			for _, oc := range cost.PerOp {
				fmt.Fprintf(hp, "%d %d %+v %016x\n", oc.Step, oc.Kind, oc.Traffic, math.Float64bits(oc.Time))
			}
			fmt.Fprintf(&buf, "%s price PerOp=%016x Traffic=%016x Time=%016x\n",
				head, hp.Sum64(), hashTraffic(cost.Traffic), math.Float64bits(cost.Time))
		}
	}
	path := filepath.Join("testdata", "replay.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wl) {
		t.Fatalf("replay golden: %d lines, want %d", len(got), len(wl))
	}
	bad := 0
	for i := range got {
		if got[i] == wl[i] {
			continue
		}
		gf, wf := strings.Fields(got[i]), strings.Fields(wl[i])
		for j := range min(len(gf), len(wf)) {
			if gf[j] != wf[j] {
				t.Errorf("replay golden line %d (%s %s %s): field %s, want %s", i+1, wf[0], wf[1], wf[2], gf[j], wf[j])
				break
			}
		}
		if bad++; bad == 10 {
			t.Fatal("more than 10 lines differ")
		}
	}
}

type replayGoldenCase struct {
	name   string
	tp     *topo.Topology
	nnz    int64
	eager  bool // the explicit ABC census (ApproxABCPairs) over the lazy one
	scheds []*Schedule
}

func replayGoldenCases(t *testing.T) []replayGoldenCase {
	sweep := func(n, p, ra int) []*Schedule {
		var out []*Schedule
		for cfg := range 16 {
			out = append(out, Compile(Spec{N: n, Dims: []int{64, 128, 32}, Config: costmodel.ConfigFromID(cfg, 2),
				P: p, RA: ra, Memoize: true}).Optimize())
		}
		return out
	}
	const bigN, smallN = 1 << 18, 1000
	big, small := sweep(bigN, 1024, 1024), sweep(smallN, 13, 1)
	sparse := func(cfg int) *Schedule {
		return Compile(Spec{N: 203, Dims: []int{16, 12, 8}, Config: costmodel.ConfigFromID(cfg, 2),
			P: 12, RA: 12, Memoize: true, InputGrad: true, Live: 23, SparseSeed: 3}).Optimize()
	}
	// Ordering 2 keeps its redist.sp; ordering 3's fuses into spmm.abc.
	sp := []*Schedule{sparse(2), sparse(3), sparse(3).ABC()}
	if countKind(sp[0], KRedist, true) == 0 || countKind(sp[2], KSpMMABC, false) == 0 {
		t.Fatalf("the sparse case has no redist.sp or no spmm.abc:\n%s\n%s", sp[0], sp[2])
	}
	mt := func(spec string, p int) *topo.Topology { return topo.MustParseSpec(spec).MustTopology(p) }
	return []replayGoldenCase{
		{name: "p1024/flat", nnz: 8 * bigN, scheds: big},
		{name: "p1024/128x8", tp: mt("128x8:nvlink,ib", 1024), nnz: 8 * bigN, scheds: big},
		{name: "p13ra1/flat", nnz: 7 * smallN, scheds: small},
		{name: "p13ra1/4x4", tp: mt("4x4:nvlink,ib", 13), nnz: 7 * smallN, scheds: small},
		{name: "sparse-abc/flat", nnz: 5 * 203, scheds: sp},
		{name: "sparse-abc/3x4", tp: mt("3x4:nvlink,ib", 12), nnz: 5 * 203, scheds: sp},
		{name: "sparse-abc-eager/3x4", tp: mt("3x4:nvlink,ib", 12), nnz: 5 * 203, eager: true, scheds: sp},
	}
}

// hashF returns the FNV-64a hash of the rows' float64 bits, in order.
func hashF(rows ...[]float64) string {
	h := fnv.New64a()
	for _, row := range rows {
		for _, v := range row {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func hexI(v []int64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%x", x)
	}
	return strings.Join(parts, ",")
}

// meterBits writes each Meters field as the FNV-64a hash of its
// integers.
func meterBits(m comm.Meters) string {
	h := func(v any) string {
		f := fnv.New64a()
		binary.Write(f, binary.LittleEndian, v)
		return fmt.Sprintf("%016x", f.Sum64())
	}
	return fmt.Sprintf("Volume=%s SideVolume=%s Calls=%s TierVolume=%s SideTierVolume=%s",
		h(m.Volume), h(m.SideVolume), h(m.Calls), h(m.TierVolume), h(m.SideTierVolume))
}

func hashTraffic(tr Traffic) uint64 {
	f := fnv.New64a()
	binary.Write(f, binary.LittleEndian, tr)
	return f.Sum64()
}
