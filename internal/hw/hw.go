// Package hw models the hardware of the paper's testbed — 8× NVIDIA RTX
// A6000-class GPUs connected by NVLink/PCIe-class links — as an
// analytic clock. Kernels and collectives executed on the simulated
// fabric (internal/comm) charge time through this model, so reported
// epoch times reflect GPU-class compute/communication ratios rather
// than Go loop speeds. See DESIGN.md §1 for why this substitution
// preserves the paper's observable behaviour.
package hw

import "math"

// Model holds the device and interconnect parameters of the simulated
// machine. All rates are in SI units (seconds, bytes, FMA/s).
type Model struct {
	// GemmRate is the dense FMA throughput of one device.
	GemmRate float64
	// SpMMRate is the peak sparse FMA throughput of one device for wide
	// dense operands.
	SpMMRate float64
	// SpMMWidthPenalty is the half-saturation width of SpMM efficiency:
	// effective rate = SpMMRate * f/(f+SpMMWidthPenalty). It models the
	// reduced data reuse of narrow dense slices that the paper observes
	// for RDM's f/P-wide tiles (§V-B).
	SpMMWidthPenalty float64
	// MemBandwidth is the device memory bandwidth, charged for
	// element-wise kernels and local divide/merge copies.
	MemBandwidth float64
	// LinkLatency is the per-message latency (alpha).
	LinkLatency float64
	// LinkBandwidth is the per-device injection/ejection bandwidth
	// (beta), bytes/s in each direction.
	LinkBandwidth float64
	// KernelLaunch is the fixed overhead charged per kernel.
	KernelLaunch float64
}

// A6000 returns parameters approximating the paper's testbed: RTX A6000
// GPUs (38.7 TFLOPS fp32 peak, 768 GB/s GDDR6) on PCIe 4.0 x16-class
// links with NCCL.
func A6000() *Model {
	return &Model{
		GemmRate:         14e12, // ~28 TFLOPS sustained = 14e12 FMA/s
		SpMMRate:         2.2e11,
		SpMMWidthPenalty: 24,
		MemBandwidth:     6.0e11,
		LinkLatency:      15e-6,
		LinkBandwidth:    2.2e10,
		KernelLaunch:     8e-6,
	}
}

// A6000NVLink returns a variant of the A6000 testbed with NVLink-class
// links (~56 GB/s per direction), for sensitivity studies: faster links
// shrink every scheme's communication share, narrowing RDM's advantage.
func A6000NVLink() *Model {
	m := A6000()
	m.LinkBandwidth = 5.6e10
	m.LinkLatency = 8e-6
	return m
}

// A6000SlowPCIe returns a variant with PCIe 3.0-class links (~12 GB/s),
// where communication dominates and RDM's constant volume matters most.
func A6000SlowPCIe() *Model {
	m := A6000()
	m.LinkBandwidth = 1.2e10
	m.LinkLatency = 20e-6
	return m
}

// Degraded returns a copy of the model with the link parameters scaled by
// per-link fault multipliers: latency (alpha) is multiplied by alphaMul
// and bandwidth (beta) divided by betaMul, both >= 1 for a degraded link.
// The simulated fabric applies the worst multipliers among a collective's
// participants — a ring is only as fast as its slowest link — so one
// flaky device taxes every group it joins (internal/fault's degrade
// events drive this).
func (h *Model) Degraded(alphaMul, betaMul float64) *Model {
	if alphaMul < 1 {
		alphaMul = 1
	}
	if betaMul < 1 {
		betaMul = 1
	}
	m := *h
	m.LinkLatency *= alphaMul
	m.LinkBandwidth /= betaMul
	return &m
}

// GemmTime returns the modelled time of an (m x k)·(k x n) dense product.
func (h *Model) GemmTime(m, k, n int) float64 {
	fma := float64(m) * float64(k) * float64(n)
	return h.KernelLaunch + fma/h.GemmRate
}

// SpMMTime returns the modelled time of a sparse-dense product with nnz
// stored entries and f dense columns.
func (h *Model) SpMMTime(nnz int64, f int) float64 {
	if f <= 0 || nnz <= 0 {
		return h.KernelLaunch
	}
	eff := float64(f) / (float64(f) + h.SpMMWidthPenalty)
	return h.KernelLaunch + float64(nnz)*float64(f)/(h.SpMMRate*eff)
}

// MemTime returns the modelled time of a memory-bound kernel touching the
// given number of bytes.
func (h *Model) MemTime(bytes int64) float64 {
	return h.KernelLaunch + float64(bytes)/h.MemBandwidth
}

// CollectiveKind identifies a collective operation for time modelling.
type CollectiveKind int

const (
	// OpBroadcast sends one buffer from a root to all group members.
	OpBroadcast CollectiveKind = iota
	// OpAllGather concatenates per-device buffers on every device.
	OpAllGather
	// OpAllReduce element-wise sums per-device buffers onto every device.
	OpAllReduce
	// OpAllToAll performs personalized exchange (the redistribution
	// primitive of Fig. 7).
	OpAllToAll
	// OpSendRecv is a point-to-point transfer.
	OpSendRecv
	// OpReduceScatter sums and leaves each device with one shard.
	OpReduceScatter
	// NumCollectiveKinds sizes per-kind meter arrays.
	NumCollectiveKinds
)

func (k CollectiveKind) String() string {
	switch k {
	case OpBroadcast:
		return "broadcast"
	case OpAllGather:
		return "allgather"
	case OpAllReduce:
		return "allreduce"
	case OpAllToAll:
		return "alltoall"
	case OpSendRecv:
		return "sendrecv"
	case OpReduceScatter:
		return "reducescatter"
	}
	return "unknown"
}

// CollectiveTime models a collective over p devices using standard ring
// algorithm costs (the NCCL regime):
//
//   - broadcast of B bytes: alpha·ceil(log2 p) + B·(p-1)/(p·beta)
//   - allgather to B total: alpha·(p-1)   + B·(p-1)/(p·beta)
//   - allreduce of B bytes: 2alpha·(p-1)  + 2B·(p-1)/(p·beta)
//   - all-to-all, maxPerDevice bytes injected by the busiest device:
//     alpha·(p-1) + maxPerDevice/beta (all links run concurrently)
//   - send/recv of B bytes: alpha + B/beta
//
// bytes is the full buffer size B for broadcast/allgather/allreduce and
// the maximum per-device injected volume for all-to-all.
// Zero-work collectives (p > 1 but no bytes to move) cost exactly one
// kernel launch — the rendezvous still happens on device — and any
// collective over p ≤ 1 devices costs zero, uniformly across kinds.
func (h *Model) CollectiveTime(kind CollectiveKind, p int, bytes int64) float64 {
	if p <= 1 {
		return 0
	}
	if bytes <= 0 {
		return h.KernelLaunch
	}
	b := float64(bytes)
	pf := float64(p)
	switch kind {
	case OpBroadcast:
		return float64(h.LinkLatency*math.Ceil(math.Log2(pf))) + b*(pf-1)/(pf*h.LinkBandwidth)
	case OpAllGather:
		return float64(h.LinkLatency*(pf-1)) + b*(pf-1)/(pf*h.LinkBandwidth)
	case OpAllReduce, OpReduceScatter:
		mult := 2.0
		if kind == OpReduceScatter {
			mult = 1.0
		}
		return mult * (float64(h.LinkLatency*(pf-1)) + b*(pf-1)/(pf*h.LinkBandwidth))
	case OpAllToAll:
		return float64(h.LinkLatency*(pf-1)) + b/h.LinkBandwidth
	case OpSendRecv:
		return h.LinkLatency + b/h.LinkBandwidth
	}
	panic("hw: unknown collective kind")
}
