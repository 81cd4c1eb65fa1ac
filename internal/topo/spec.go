// Package topo models hierarchical interconnect topologies — devices
// grouped into nodes, with NVLink-class links inside a node and
// IB/Ethernet-class links between nodes — and prices collective
// algorithms (flat ring, recursive halving/doubling, two-level
// hierarchical) on them. It is the single source of truth for
// topology-aware communication costs: the simulated fabric
// (internal/comm) meters bytes and advances clocks through these cost
// functions, and the planner (internal/plan.Schedule.PriceOn) prices
// schedules through the same functions, so model-versus-meter
// comparisons are byte- and time-exact by construction. See DESIGN.md
// §Topology and collective algorithms.
package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Class is a named interconnect link class with α–β parameters: Alpha
// is the per-message latency in seconds, Beta the per-device bandwidth
// in bytes/s per direction.
type Class struct {
	Name  string
	Alpha float64
	Beta  float64
}

// The built-in link classes. pcie matches hw.A6000's link parameters
// exactly, so the 1-node spec "1xP:pcie" reproduces the default flat
// fabric bit-for-bit; nvlink and pcie3 match the A6000NVLink and
// A6000SlowPCIe sensitivity variants.
var classes = []Class{
	{Name: "nvlink", Alpha: 8e-6, Beta: 5.6e10}, // NVLink-class intra-node
	{Name: "pcie", Alpha: 15e-6, Beta: 2.2e10},  // PCIe 4.0 x16-class
	{Name: "pcie3", Alpha: 20e-6, Beta: 1.2e10}, // PCIe 3.0-class
	{Name: "ib", Alpha: 25e-6, Beta: 2.5e10},    // HDR InfiniBand-class
	{Name: "eth", Alpha: 50e-6, Beta: 1.25e9},   // 10 GbE-class
}

// ParseClass resolves a link-class name.
func ParseClass(name string) (Class, error) {
	for _, c := range classes {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("topo: unknown link class %q", name)
}

// maxDevices bounds Nodes×PerNode so fuzzed specs cannot demand
// unbounded memory from downstream consumers.
const maxDevices = 1 << 16

// Spec is a parsable machine description: Nodes nodes of PerNode
// devices each, with Intra-class links inside a node and Inter-class
// links between nodes. The grammar is
//
//	<nodes>x<perNode>:<intraClass>[,<interClass>]
//
// e.g. "8x4:nvlink,ib" is 8 nodes × 4 devices (32 devices total) with
// NVLink inside each node and InfiniBand between nodes. A 1-node spec
// may omit the inter class; it is normalized to the intra class
// (String omits it again), so ParseSpec∘String is a fixed point.
type Spec struct {
	Nodes   int
	PerNode int
	Intra   Class
	Inter   Class
}

// ParseSpec parses the topology grammar above.
// MustParseSpec is ParseSpec panicking on error, for static
// configuration and tests.
func MustParseSpec(s string) Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return sp
}

func ParseSpec(s string) (Spec, error) {
	shape, links, ok := strings.Cut(s, ":")
	if !ok {
		return Spec{}, fmt.Errorf("topo: spec %q needs a ':' between shape and link classes", s)
	}
	ns, gs, ok := strings.Cut(shape, "x")
	if !ok {
		return Spec{}, fmt.Errorf("topo: shape %q needs the form <nodes>x<perNode>", shape)
	}
	nodes, err := strconv.Atoi(ns)
	if err != nil || nodes < 1 {
		return Spec{}, fmt.Errorf("topo: node count %q is not a positive integer", ns)
	}
	per, err := strconv.Atoi(gs)
	if err != nil || per < 1 {
		return Spec{}, fmt.Errorf("topo: per-node count %q is not a positive integer", gs)
	}
	if nodes > maxDevices || per > maxDevices || nodes*per > maxDevices {
		return Spec{}, fmt.Errorf("topo: %dx%d exceeds the %d-device limit", nodes, per, maxDevices)
	}
	intraName, interName, hasInter := strings.Cut(links, ",")
	intra, err := ParseClass(intraName)
	if err != nil {
		return Spec{}, err
	}
	inter := intra
	if hasInter {
		if inter, err = ParseClass(interName); err != nil {
			return Spec{}, err
		}
	} else if nodes > 1 {
		return Spec{}, fmt.Errorf("topo: multi-node spec %q needs an inter-node link class", s)
	}
	if nodes == 1 {
		inter = intra // unused; normalized so String round-trips
	}
	return Spec{Nodes: nodes, PerNode: per, Intra: intra, Inter: inter}, nil
}

// String renders the canonical spec form; ParseSpec(s.String()) == s
// for any Spec produced by ParseSpec.
func (s Spec) String() string {
	if s.Nodes == 1 {
		return fmt.Sprintf("%dx%d:%s", s.Nodes, s.PerNode, s.Intra.Name)
	}
	return fmt.Sprintf("%dx%d:%s,%s", s.Nodes, s.PerNode, s.Intra.Name, s.Inter.Name)
}

// Devices returns the machine's total device count.
func (s Spec) Devices() int { return s.Nodes * s.PerNode }
