package topo

import (
	"fmt"

	"gnnrdm/internal/hw"
)

// Link is one tier's α–β parameters.
type Link struct {
	Alpha float64 // per-message latency, seconds
	Beta  float64 // per-device bandwidth, bytes/s per direction
}

// Tier indices: tier 0 is intra-node, tier 1 inter-node.
const (
	TierIntra = 0
	TierInter = 1
	NumTiers  = 2
)

// Topology is an instantiated interconnect for P devices: a node shape
// plus per-tier links. Ranks are assigned to nodes contiguously
// (NodeOf(r) = r / PerNode), matching how multi-node launchers number
// local ranks.
type Topology struct {
	P       int
	PerNode int
	Tiers   int // 1 = flat, 2 = hierarchical
	Links   [NumTiers]Link
	Name    string // spec string, or "flat" for Flat topologies

	// node is NodeOf(r) for every rank r < P, built once by Spec.Topology
	// for a two-tier topology so that pricing a pair list reads each
	// pair's nodes instead of dividing; nil on one tier, where every rank
	// is on node 0.
	node []int32
}

// Flat returns the single-tier topology whose one link carries the
// hardware model's own α–β. It reproduces the pre-topology fabric
// bit-for-bit: every cost function degenerates to hw.CollectiveTime on
// h unchanged.
func Flat(p int, h *hw.Model) *Topology {
	return &Topology{
		P: p, PerNode: p, Tiers: 1,
		Links: [NumTiers]Link{
			{Alpha: h.LinkLatency, Beta: h.LinkBandwidth},
			{Alpha: h.LinkLatency, Beta: h.LinkBandwidth},
		},
		Name: "flat",
	}
}

// Topology instantiates the spec for p devices (p ≤ s.Devices()).
// Smaller worlds occupy the first ceil(p/PerNode) nodes; a world that
// fits inside one node is still built with both tiers so Tier stays
// meaningful, but every pair lands on tier 0.
func (s Spec) Topology(p int) (*Topology, error) {
	if p < 1 {
		return nil, fmt.Errorf("topo: need at least one device, got %d", p)
	}
	if p > s.Devices() {
		return nil, fmt.Errorf("topo: %d devices exceed spec %s (%d devices)", p, s, s.Devices())
	}
	t := &Topology{
		P: p, PerNode: s.PerNode, Tiers: 2,
		Links: [NumTiers]Link{
			{Alpha: s.Intra.Alpha, Beta: s.Intra.Beta},
			{Alpha: s.Inter.Alpha, Beta: s.Inter.Beta},
		},
		Name: s.String(),
	}
	if s.Nodes == 1 {
		t.Tiers = 1
	} else {
		t.node = make([]int32, p)
		for r := range t.node {
			t.node[r] = int32(r / s.PerNode)
		}
	}
	return t, nil
}

// MustTopology is Spec.Topology panicking on error, for tests and
// static configuration.
func (s Spec) MustTopology(p int) *Topology {
	t, err := s.Topology(p)
	if err != nil {
		panic(err)
	}
	return t
}

// NodeOf returns the node index of a rank.
func (t *Topology) NodeOf(r int) int {
	if t.Tiers == 1 {
		return 0
	}
	return r / t.PerNode
}

// Tier returns the link tier connecting two ranks: TierIntra within a
// node, TierInter across nodes.
func (t *Topology) Tier(a, b int) int {
	if t.NodeOf(a) == t.NodeOf(b) {
		return TierIntra
	}
	return TierInter
}

// worstTier returns the slowest tier any pair in the (sorted) group
// communicates over: TierInter iff the group spans nodes.
func (t *Topology) worstTier(group []int) int {
	if t.Tiers == 1 || len(group) < 2 {
		return TierIntra
	}
	if t.NodeOf(group[0]) != t.NodeOf(group[len(group)-1]) {
		return TierInter
	}
	return TierIntra
}

// WorstTier returns the slowest tier any pair in the (sorted) group
// communicates over: TierInter iff the group spans nodes. The overlap
// planner (internal/plan) uses it to bind each collective to a per-tier
// link resource consistently with how the fabric prices the group.
func (t *Topology) WorstTier(group []int) int { return t.worstTier(group) }

// Degraded returns a copy with every link's latency multiplied by
// alphaMul and bandwidth divided by betaMul (multipliers < 1 read as
// 1), mirroring hw.Model.Degraded so fault-degraded topologies price
// identically to fault-degraded flat models.
func (t *Topology) Degraded(alphaMul, betaMul float64) *Topology {
	if alphaMul < 1 {
		alphaMul = 1
	}
	if betaMul < 1 {
		betaMul = 1
	}
	c := *t
	for i := range c.Links {
		c.Links[i].Alpha *= alphaMul
		c.Links[i].Beta /= betaMul
	}
	return &c
}

// model returns the hardware model a collective on the given tier runs
// at: h with its link parameters replaced by the tier's. On a Flat
// topology built from h this is h unchanged, bit-for-bit.
func (t *Topology) model(h *hw.Model, tier int) *hw.Model {
	m := *h
	m.LinkLatency = t.Links[tier].Alpha
	m.LinkBandwidth = t.Links[tier].Beta
	return &m
}

// nodeGroups partitions a sorted group by node, preserving order.
// ok reports whether the group is node-uniform and multi-node: at
// least two nodes, every node contributing the same member count —
// the shape the two-level hierarchical algorithms require. Ranks map
// to nodes contiguously, so each node's members are a run of the
// sorted group: the partition is capacity-clipped subslices of group
// (read-only for callers), one allocation whatever the group size.
func (t *Topology) nodeGroups(group []int) (nodes [][]int, ok bool) {
	if t.Tiers == 1 || len(group) == 0 {
		return nil, false
	}
	nodes = make([][]int, 0, t.NodeOf(group[len(group)-1])-t.NodeOf(group[0])+1)
	start := 0
	for i := 1; i <= len(group); i++ {
		if i == len(group) || t.NodeOf(group[i]) != t.NodeOf(group[start]) {
			nodes = append(nodes, group[start:i:i])
			start = i
		}
	}
	if len(nodes) < 2 {
		return nodes, false
	}
	g := len(nodes[0])
	for _, nd := range nodes[1:] {
		if len(nd) != g {
			return nodes, false
		}
	}
	return nodes, true
}

// Barrier returns the latency-only synchronization cost of a group:
// the worst participating tier's α, matching the flat fabric's
// linkModel(group).LinkLatency on single-tier groups.
func (t *Topology) Barrier(h *hw.Model, group []int) float64 {
	if len(group) <= 1 {
		return 0
	}
	return t.model(h, t.worstTier(group)).LinkLatency
}
