package verify

import (
	"fmt"
	"testing"
	"time"
)

// NoDeadlock runs fn and fails the test if it has not returned within
// timeout. Use it to wrap fabric runs that exercise error paths: a bug
// that turns an error into a missed rendezvous would otherwise hang the
// whole test binary until the package timeout.
//
// This is a wall-clock backstop for tests only. On the production path
// the fabric itself prevents rendezvous hangs: every collective carries
// a simulated-time deadline (comm.DefaultCollectiveDeadline), so a
// dead peer surfaces as a typed *comm.FaultError on all survivors
// instead of a deadlock — the mechanism elastic recovery
// (core.TrainElastic) is built on.
//
// On timeout the worker goroutine is leaked (there is no way to cancel a
// goroutine parked on a rendezvous), so a failing test may report
// goroutine-leak noise after the genuine failure. A panic inside fn is
// reported as a test failure rather than crashing the binary.
func NoDeadlock(t testing.TB, timeout time.Duration, fn func()) {
	t.Helper()
	if err := noDeadlock(timeout, fn); err != nil {
		t.Fatal(err)
	}
}

func noDeadlock(timeout time.Duration, fn func()) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("verify: panic inside guarded function: %v", r)
			}
		}()
		fn()
		done <- nil
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("verify: guarded function did not return within %v — likely collective deadlock (worker goroutine leaked)", timeout)
	}
}
