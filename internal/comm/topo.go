// Topology-aware fabric paths. Attaching a topo.Topology
// (Fabric.SetTopology) switches every collective's time and byte
// accounting from the flat linkModel formulas to the internal/topo
// algorithm library, metering traffic per link tier. The default
// algorithm policy (topo.Auto) resolves inside the single fused
// rendezvous — the chosen algorithm's schedule is priced and metered
// exactly ("virtual routing") without extra rounds, which keeps the
// decision trivially consistent across ranks. Explicitly selecting
// topo.Hier (Fabric.SetAlgorithm) for allreduce or allgather instead
// runs the genuine staged schedule — intra-node reduce/gather, an
// inter-node exchange, then intra-node gather/broadcast — as separate
// rendezvous whose metered bytes and synchronized clocks match the
// virtual cost (pinned by the staged-versus-virtual oracle tests).
// Hierarchical reduce-scatter and all-to-all use virtual accounting
// only.
package comm

import (
	"fmt"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// Volume is one collective round's metered traffic: total bytes moved
// across device boundaries, and the share that crossed inter-node
// (tier-1) links — zero on fabrics without a topology.
type Volume struct {
	Bytes int64
	Tier1 int64
}

func volumeOf(c topo.Cost) Volume {
	return Volume{Bytes: c.Bytes(), Tier1: c.Tier[topo.TierInter]}
}

// SetTopology attaches an interconnect topology: subsequent collectives
// price and meter through internal/topo's algorithm library, splitting
// bytes by link tier. The topology must cover every rank (t.P >= P).
// Passing nil restores the flat pre-topology accounting. Call before
// Run. A flat single-tier topology built from the fabric's own model
// (topo.Flat(p, hw)) reproduces the nil-topology fabric bit-for-bit.
func (f *Fabric) SetTopology(t *topo.Topology) {
	if t != nil && t.P < f.P {
		panic(fmt.Sprintf("comm: topology covers %d devices, fabric has %d", t.P, f.P))
	}
	f.topology = t
}

// Topology returns the attached topology (nil = flat accounting).
func (f *Fabric) Topology() *topo.Topology { return f.topology }

// SetAlgorithm pins the collective algorithm for one kind (default
// topo.Auto, the cost-model autotuner). Only consulted when a topology
// is attached. Call before Run.
func (f *Fabric) SetAlgorithm(kind hw.CollectiveKind, alg topo.Algorithm) {
	f.algs[kind] = alg
}

// Algorithm returns the configured algorithm for a kind.
func (f *Fabric) Algorithm(kind hw.CollectiveKind) topo.Algorithm { return f.algs[kind] }

// topoFor returns the topology a collective over group runs at — the
// attached topology degraded by the worst per-rank link-fault
// multipliers among the participants (mirroring linkModel) — or nil
// when no topology is attached.
func (f *Fabric) topoFor(group []int) *topo.Topology {
	t := f.topology
	if t == nil || f.linkAlpha == nil {
		return t
	}
	alpha, beta := 1.0, 1.0
	for _, r := range group {
		if f.linkAlpha[r] > alpha {
			alpha = f.linkAlpha[r]
		}
		if f.linkBeta[r] > beta {
			beta = f.linkBeta[r]
		}
	}
	if alpha == 1 && beta == 1 {
		return t
	}
	return t.Degraded(alpha, beta)
}

// stagedHier reports whether a collective of this kind over this group
// must run the staged hierarchical schedule, returning the node
// partition. The decision depends only on fabric-shared state and the
// group, so every rank routes identically.
func (f *Fabric) stagedHier(kind hw.CollectiveKind, group []int) ([][]int, bool) {
	if f.topology == nil || f.algs[kind] != topo.Hier {
		return nil, false
	}
	return f.topology.NodeGroups(group)
}

// hierAllReduceSum is the staged two-level allreduce: intra-node
// reduce-scatter into even chunks, per-position inter-node allreduce of
// each chunk, intra-node allgather. Every stage is a real rendezvous
// metered under hw.OpAllReduce with its ring cost on the subgroup, so
// the summed meters and the synchronized clocks equal the virtual
// hierarchical cost exactly.
func (d *Device) hierAllReduceSum(group []int, local []float32, nodes [][]int) ([]float32, error) {
	const op = "allreduce"
	f := d.F
	g := len(nodes[0])
	var nd []int
	for _, nn := range nodes {
		if indexOf(nn, d.Rank) >= 0 {
			nd = nn
			break
		}
	}
	myPos := indexOf(nd, d.Rank)

	n := len(local)
	chBytes := topo.EvenChunks(int64(n)*4, g)
	ce := make([]int, g)
	off := make([]int, g+1)
	for i, b := range chBytes {
		ce[i] = int(b / 4)
		off[i+1] = off[i] + ce[i]
	}

	// Stage 1: intra-node reduce-scatter (skipped for one-device nodes).
	shard := local
	if g > 1 {
		var contribution any = local
		if local == nil {
			contribution = collErr{fmt.Errorf("local buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
		}
		out := make([]float32, ce[myPos])
		g := f.groupFor(nd)
		err := d.collectiveIn(g, op, nd, contribution,
			func(slots []any, clocks []float64) (float64, any, Volume, error) {
				if err := sumSlots(g, n, slots); err != nil {
					return maxClock(clocks), nil, Volume{}, err
				}
				tp := f.topoFor(nd)
				_, c := tp.ReduceScatter(f.HW, topo.Ring, nd, chBytes)
				vol := volumeOf(c)
				f.addVolume(hw.OpAllReduce, vol, d.side)
				return maxClock(clocks) + c.Time, nil, vol, nil
			},
			func([]any, any) {
				copy(out, g.red[off[myPos]:off[myPos+1]])
			})
		if err != nil {
			return nil, err
		}
		shard = out
	} else if local == nil {
		return nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
	}

	// Stage 2: my position's plane (one member per node) allreduces the
	// shard across nodes.
	plane := make([]int, len(nodes))
	for j, nn := range nodes {
		plane[j] = nn[myPos]
	}
	myBytes := chBytes[myPos]
	reduced := make([]float32, len(shard))
	pg := f.groupFor(plane)
	err := d.collectiveIn(pg, op, plane, shard,
		func(slots []any, clocks []float64) (float64, any, Volume, error) {
			if err := sumSlots(pg, len(shard), slots); err != nil {
				return maxClock(clocks), nil, Volume{}, err
			}
			tp := f.topoFor(plane)
			_, c := tp.AllReduce(f.HW, topo.Ring, plane, myBytes)
			vol := volumeOf(c)
			f.addVolume(hw.OpAllReduce, vol, d.side)
			return maxClock(clocks) + c.Time, nil, vol, nil
		},
		func([]any, any) { copy(reduced, pg.red) })
	if err != nil {
		return nil, err
	}
	if g == 1 {
		return reduced, nil
	}

	// Stage 3: intra-node allgather of the reduced chunks.
	full := make([]float32, n)
	err = d.collective(op, nd, reduced,
		func(slots []any, clocks []float64) (float64, any, Volume, error) {
			tp := f.topoFor(nd)
			_, c := tp.AllGather(f.HW, topo.Ring, nd, chBytes)
			vol := volumeOf(c)
			f.addVolume(hw.OpAllReduce, vol, d.side)
			return maxClock(clocks) + c.Time, nil, vol, nil
		},
		func(slots []any, _ any) {
			for i, s := range slots {
				copy(full[off[i]:off[i+1]], s.([]float32))
			}
		})
	if err != nil {
		return nil, err
	}
	return full, nil
}

// hierAllGather is the staged two-level allgather: intra-node
// allgather, an inter-node allgather among node leaders (position 0)
// of the concatenated node chunks, then each leader broadcasts the
// remote nodes' bytes locally. Metered under hw.OpAllGather; summed
// meters equal the virtual hierarchical cost exactly, and the fabric's
// max clock advances by the virtual cost's time.
func (d *Device) hierAllGather(group []int, local []float32, nodes [][]int) ([][]float32, error) {
	const op = "allgather"
	f := d.F
	g := len(nodes[0])
	m := len(nodes)
	var nd []int
	myNode := -1
	for j, n := range nodes {
		if indexOf(n, d.Rank) >= 0 {
			nd, myNode = n, j
			break
		}
	}
	myPos := indexOf(nd, d.Rank)
	isLeader := myPos == 0

	// Stage 1: intra-node allgather (skipped for one-device nodes).
	nodeChunks := [][]float32{local}
	if g > 1 {
		var contribution any = local
		if local == nil {
			contribution = collErr{fmt.Errorf("local buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
		}
		out := make([][]float32, g)
		err := d.collective(op, nd, contribution,
			func(slots []any, clocks []float64) (float64, any, Volume, error) {
				chunks := make([]int64, len(slots))
				for i, s := range slots {
					chunks[i] = int64(len(s.([]float32))) * 4
				}
				tp := f.topoFor(nd)
				_, c := tp.AllGather(f.HW, topo.Ring, nd, chunks)
				vol := volumeOf(c)
				f.addVolume(hw.OpAllGather, vol, d.side)
				return maxClock(clocks) + c.Time, nil, vol, nil
			},
			func(slots []any, _ any) {
				for i, s := range slots {
					src := s.([]float32)
					if i == myPos {
						out[i] = local
						continue
					}
					out[i] = append(make([]float32, 0, len(src)), src...)
				}
			})
		if err != nil {
			return nil, err
		}
		nodeChunks = out
	} else if local == nil {
		return nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
	}

	// all[j][a] is node j's chunk for its position a; leaders fill the
	// remote entries in stage 2, everyone else in stage 3.
	all := make([][][]float32, m)
	all[myNode] = nodeChunks

	// Stage 2: node leaders exchange the concatenated node chunks.
	leaders := make([]int, m)
	for j, nn := range nodes {
		leaders[j] = nn[0]
	}
	if isLeader {
		err := d.collective(op, leaders, nodeChunks,
			func(slots []any, clocks []float64) (float64, any, Volume, error) {
				totals := make([]int64, len(slots))
				for i, s := range slots {
					for _, part := range s.([][]float32) {
						totals[i] += int64(len(part)) * 4
					}
				}
				tp := f.topoFor(leaders)
				_, c := tp.AllGather(f.HW, topo.Ring, leaders, totals)
				vol := volumeOf(c)
				f.addVolume(hw.OpAllGather, vol, d.side)
				return maxClock(clocks) + c.Time, nil, vol, nil
			},
			func(slots []any, _ any) {
				for j, s := range slots {
					if j == myNode {
						continue
					}
					src := s.([][]float32)
					cp := make([][]float32, len(src))
					for a, part := range src {
						cp[a] = append(make([]float32, 0, len(part)), part...)
					}
					all[j] = cp
				}
			})
		if err != nil {
			return nil, err
		}
	}

	// Stage 3: each leader broadcasts the remote nodes' chunks inside
	// its node (skipped for one-device nodes — the leader is the node).
	if g > 1 {
		var contribution any
		if isLeader {
			remote := make([][]float32, 0, (m-1)*g)
			for j := 0; j < m; j++ {
				if j != myNode {
					remote = append(remote, all[j]...)
				}
			}
			contribution = remote
		}
		err := d.collective(op, nd, contribution,
			func(slots []any, clocks []float64) (float64, any, Volume, error) {
				var bytes int64
				for _, part := range slots[0].([][]float32) {
					bytes += int64(len(part)) * 4
				}
				tp := f.topoFor(nd)
				c := tp.Broadcast(f.HW, nd, 0, bytes)
				vol := volumeOf(c)
				f.addVolume(hw.OpAllGather, vol, d.side)
				return maxClock(clocks) + c.Time, nil, vol, nil
			},
			func(slots []any, _ any) {
				if isLeader {
					return
				}
				src := slots[0].([][]float32)
				k := 0
				for j := 0; j < m; j++ {
					if j == myNode {
						continue
					}
					cp := make([][]float32, g)
					for a := 0; a < g; a++ {
						part := src[k]
						k++
						cp[a] = append(make([]float32, 0, len(part)), part...)
					}
					all[j] = cp
				}
			})
		if err != nil {
			return nil, err
		}
	}

	out := make([][]float32, len(group))
	for j := 0; j < m; j++ {
		for a := 0; a < len(nodes[j]); a++ {
			out[j*g+a] = all[j][a]
		}
	}
	return out, nil
}
