// Variable-volume collectives — the fabric layer of the sparsity-aware
// exchange subsystem (DESIGN.md §4g). TryAllToAllV and TryAllGatherV
// move ragged per-rank buffers whose sizes are advertised explicitly:
// senders declare per-destination (or per-group) element counts, the
// counts are validated against the actual buffers before the
// rendezvous, and receivers get the per-source counts back alongside
// the data. Pricing, per-tier metering, α–β clock advancement, and
// deadline/fault semantics are exactly the dense collectives' — both
// run through the same Device.collective rendezvous and comm.Meter
// seam.
package comm

import "fmt"

// TryAllToAllV performs a personalized variable-volume exchange:
// parts[j] is sent to group[j], and counts[j] — the advertised element
// count of parts[j] — must equal len(parts[j]) (ErrCountMismatch
// otherwise, rejected before the rendezvous). counts == nil derives
// the counts from the buffers. The returned slices hold the buffer and
// element count received from each group member (own part passed
// through without copy). Time, metering, and fault semantics match
// TryAllToAll.
func (d *Device) TryAllToAllV(group []int, parts [][]float32, counts []int) ([][]float32, []int, error) {
	const op = "alltoall"
	myIdx, err := d.groupPos(op, group)
	if err != nil {
		return nil, nil, err
	}
	if parts != nil && len(parts) != len(group) {
		return nil, nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("%d parts for %d-member group: %w", len(parts), len(group), ErrCountMismatch)}
	}
	if counts != nil {
		if len(counts) != len(group) {
			return nil, nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("%d counts for %d-member group: %w", len(counts), len(group), ErrCountMismatch)}
		}
		for j, c := range counts {
			if parts != nil && c != len(parts[j]) {
				return nil, nil, &CollectiveError{Op: op, Rank: d.Rank,
					Err: fmt.Errorf("advertised count %d for part %d of %d elements: %w",
						c, j, len(parts[j]), ErrCountMismatch)}
			}
		}
	}
	if len(group) == 1 {
		if parts == nil {
			return nil, nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("parts: %w", ErrNilBuffer)}
		}
		return [][]float32{parts[0]}, []int{len(parts[0])}, nil
	}
	out := make([][]float32, len(group))
	recvCounts := make([]int, len(group))
	var contribution any = parts
	if parts == nil {
		contribution = collErr{fmt.Errorf("parts on rank %d: %w", d.Rank, ErrNilBuffer)}
	}
	cerr := d.collective(op, group, contribution, d.allToAllFinalize(group),
		func(slots []any, _ any) {
			for i, s := range slots {
				ps := s.([][]float32)
				src := ps[myIdx]
				recvCounts[i] = len(src)
				if i == myIdx {
					out[i] = src
					continue
				}
				out[i] = append(make([]float32, 0, len(src)), src...)
			}
		})
	if cerr != nil {
		return nil, nil, cerr
	}
	return out, recvCounts, nil
}

// AllToAllV is TryAllToAllV panicking on failure.
func (d *Device) AllToAllV(group []int, parts [][]float32, counts []int) ([][]float32, []int) {
	out, recv, err := d.TryAllToAllV(group, parts, counts)
	if err != nil {
		panic(err)
	}
	return out, recv
}

// TryAllGatherV gathers every member's variable-length buffer; the
// result is indexed by group position, alongside the per-position
// element counts. count advertises the local buffer's length and must
// equal len(local) (ErrCountMismatch otherwise); pass count < 0 to
// derive it. Time, metering, and fault semantics match TryAllGather.
func (d *Device) TryAllGatherV(group []int, local []float32, count int) ([][]float32, []int, error) {
	const op = "allgather"
	myIdx, err := d.groupPos(op, group)
	if err != nil {
		return nil, nil, err
	}
	if count >= 0 && local != nil && count != len(local) {
		return nil, nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("advertised count %d for a %d-element buffer: %w",
				count, len(local), ErrCountMismatch)}
	}
	if len(group) == 1 {
		if local == nil {
			return nil, nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
		}
		return [][]float32{local}, []int{len(local)}, nil
	}
	out := make([][]float32, len(group))
	recvCounts := make([]int, len(group))
	var contribution any = local
	if local == nil {
		contribution = collErr{fmt.Errorf("local buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
	}
	cerr := d.collective(op, group, contribution,
		d.allGatherFinalize(group),
		func(slots []any, _ any) {
			for i, s := range slots {
				src := s.([]float32)
				recvCounts[i] = len(src)
				if i == myIdx {
					out[i] = local
					continue
				}
				out[i] = append(make([]float32, 0, len(src)), src...)
			}
		})
	if cerr != nil {
		return nil, nil, cerr
	}
	return out, recvCounts, nil
}

// AllGatherV is TryAllGatherV panicking on failure.
func (d *Device) AllGatherV(group []int, local []float32, count int) ([][]float32, []int) {
	out, recv, err := d.TryAllGatherV(group, local, count)
	if err != nil {
		panic(err)
	}
	return out, recv
}
