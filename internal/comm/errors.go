package comm

import (
	"errors"
	"fmt"
)

// Sentinel causes for collective failures. Wrap-match with errors.Is.
var (
	// ErrNilBuffer reports a nil data buffer passed to a collective.
	// (Zero-length non-nil buffers are valid.)
	ErrNilBuffer = errors.New("nil buffer")
	// ErrLengthMismatch reports participants disagreeing on a buffer
	// length that the collective requires to be uniform.
	ErrLengthMismatch = errors.New("buffer length mismatch across ranks")
	// ErrCountMismatch reports per-member part or count slices whose
	// shape does not match the group.
	ErrCountMismatch = errors.New("part/count mismatch")
	// ErrBadGroup reports an empty, unsorted, or duplicate-bearing group,
	// or a root/rank outside the group.
	ErrBadGroup = errors.New("malformed group")
)

// Fault sentinels. Unlike the data-error sentinels above these describe
// runtime faults of the (simulated) machine, not caller mistakes, and
// they surface wrapped in *FaultError rather than *CollectiveError.
var (
	// ErrPeerDead reports a collective abandoned because a group member
	// crashed (or exited Run) before completing the rendezvous. Every
	// surviving participant receives it after being charged the fabric's
	// collective deadline.
	ErrPeerDead = errors.New("peer dead")
	// ErrTransient reports a transient collective failure injected by a
	// fault hook. Transient rounds are retried under the fabric's
	// RetryPolicy with backoff charged to the simulated clock.
	ErrTransient = errors.New("transient fault")
	// ErrCorrupt reports a payload checksum mismatch detected by the CRC
	// side-channel (Fabric.EnableCRC). Corrupt rounds are retried like
	// transient ones: the reference model is an on-the-wire flip, so the
	// retransmission is expected to go through clean.
	ErrCorrupt = errors.New("payload corrupt")
)

// FaultError describes a collective that failed because of a machine
// fault: a dead peer, an exhausted retry budget on a transient fault, or
// an uncorrectable corrupt payload. It is delivered to every surviving
// participant of the round (wrapping the identical cause), so SPMD code
// can cooperatively abort — the elastic driver in internal/core recovers
// these and triggers checkpoint rollback + world shrink.
type FaultError struct {
	Op   string // collective name ("allreduce", "alltoall", ...)
	Rank int    // device reporting the failure
	Err  error  // cause, wrapping ErrPeerDead / ErrTransient / ErrCorrupt
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("comm: fault during %s on rank %d: %v", e.Op, e.Rank, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *FaultError) Unwrap() error { return e.Err }

// Killed is the panic value a fault injector uses to crash a device at a
// scheduled point. Fabric.Run recovers it and marks the device dead —
// waking every rendezvous the victim would have joined with ErrPeerDead —
// without re-panicking, since a scheduled crash is the experiment, not a
// bug. Any other panic value is re-raised by Run after all devices stop.
type Killed struct {
	Rank   int
	Reason string
}

func (k Killed) String() string {
	return fmt.Sprintf("rank %d killed: %s", k.Rank, k.Reason)
}

// CollectiveError describes a failed collective: the operation, the rank
// reporting it, and the underlying cause (wrapping one of the sentinels
// above).
//
// Failure delivery is cooperative: a rank that detects a data problem
// with its own arguments still joins the rendezvous, depositing the
// error instead of its buffer, and the finalizer reports the same cause
// to every participant. SPMD callers therefore fail in lockstep with a
// clear error instead of deadlocking the fabric (or panicking on one
// rank while the rest wait forever).
//
// Structural misuse that is necessarily identical on every rank —
// malformed groups, a caller outside the group, part/count slices of the
// wrong shape — is rejected before the rendezvous, so it surfaces
// immediately even from a single mis-behaving caller.
type CollectiveError struct {
	Op   string // collective name ("allreduce", "alltoall", ...)
	Rank int    // device reporting the failure
	Err  error  // underlying cause
}

func (e *CollectiveError) Error() string {
	return fmt.Sprintf("comm: %s on rank %d: %v", e.Op, e.Rank, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *CollectiveError) Unwrap() error { return e.Err }

// collErr is a rendezvous contribution marking a locally-detected error.
// Depositing it (rather than bailing before the rendezvous) keeps every
// participant moving, so per-rank data errors never become deadlocks.
type collErr struct{ err error }

// slotErr returns the first deposited error in group-position order
// (deterministic across participants), or nil.
func slotErr(slots []any) error {
	for _, s := range slots {
		if ce, ok := s.(collErr); ok {
			return ce.err
		}
	}
	return nil
}
