package hw

// Resource identifies one of a simulated device's independent occupancy
// timelines for overlapped execution (the DAG executor of internal/plan
// and internal/core): a compute engine plus one virtual link engine per
// interconnect tier. Ops bound to different resources of the same device
// may overlap in simulated time; ops on the same resource serialize —
// a device can run a GEMM while its NIC drains an all-reduce bucket,
// but two collectives on the same link tier queue behind each other.
type Resource uint8

const (
	// ResCompute is the device's kernel engine (gemm/spmm/mem charges).
	ResCompute Resource = iota
	// ResLinkIntra is the intra-node (tier-0) link engine.
	ResLinkIntra
	// ResLinkInter is the inter-node (tier-1) link engine.
	ResLinkInter
	// NumResources sizes per-resource arrays.
	NumResources
)

func (r Resource) String() string {
	switch r {
	case ResCompute:
		return "compute"
	case ResLinkIntra:
		return "link:intra"
	case ResLinkInter:
		return "link:inter"
	}
	return "unknown"
}
