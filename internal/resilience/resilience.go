// Package resilience is the engine's cross-cutting hardening layer: the
// typed failure taxonomy every evaluation path reports through (panics
// isolated into *PanicError, load shedding as ErrOverloaded, work budgets
// as ErrBudgetExceeded), a weighted admission-control gate with a bounded
// wait queue, and a build-tag-gated failpoint registry that lets tests
// deterministically inject panics, delays and cancellations at every
// stage of the corpus pipeline.
//
// The paper's guarantees (constant-delay enumeration after preprocessing)
// are per query; this package makes the *system* around them give
// guarantees too: one poisoned document fails one query, never the
// process, and overload degrades by shedding instead of by accumulating
// goroutines.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrOverloaded is returned when admission control rejects a query: the
// gate's concurrency slots are all held and its wait queue is full.
// Callers should treat it as a fast, retryable load-shedding signal —
// nothing was evaluated and no worker pool was started.
var ErrOverloaded = errors.New("resilience: overloaded, query rejected by admission control")

// ErrBudgetExceeded is returned when a query runs out of its work budget
// (EvalOptions' Budget). The stream delivers the results produced up to
// that point; the budget error marks them as partial.
var ErrBudgetExceeded = errors.New("resilience: work budget exceeded, results are partial")

// ErrCorrupt is the durability failure class: on-disk state (a write-ahead
// log record that is not a torn tail, or a snapshot file) failed its
// checksum or structural validation during recovery or a durable write.
// It is deliberately distinct from a torn tail — a torn tail is the
// expected residue of a crash and is repaired silently by truncation,
// while ErrCorrupt means bytes the log previously made durable changed
// underneath it, which no replay can repair. Recovery surfaces it instead
// of panicking or silently dropping acknowledged writes; wrap it with %w
// (or return it through a *wal* error chain) so errors.Is detects it
// through any layer.
var ErrCorrupt = errors.New("resilience: durable state corrupt, recovery cannot proceed")

// NoDoc marks a PanicError that is not attributable to a single document
// (a panic in the dealer or closer rather than in a shard worker).
const NoDoc = ^uint64(0)

// PanicError is a panic recovered at a goroutine boundary and converted
// into an ordinary error: the offending document (NoDoc when the panic
// happened outside per-document work), the recovered value, and the stack
// captured at the recovery point. It surfaces through Results.Err like
// any evaluation error — one poisoned document fails its own query only.
type PanicError struct {
	// Doc is the ID of the document being evaluated when the panic fired,
	// or NoDoc when the panic is not attributable to one.
	Doc uint64
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured where the panic was recovered.
	Stack []byte
}

// NewPanicError captures the current stack and wraps a recovered value.
func NewPanicError(doc uint64, value any) *PanicError {
	return &PanicError{Doc: doc, Value: value, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	if e.Doc == NoDoc {
		return fmt.Sprintf("resilience: recovered panic: %v", e.Value)
	}
	return fmt.Sprintf("resilience: recovered panic evaluating doc %d: %v", e.Doc, e.Value)
}

// Unwrap exposes a wrapped error panic value (panic(err)) to errors.Is.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// RecoverTo converts an in-flight panic into a *PanicError stored in
// *err; deferred at synchronous API boundaries (store entry points) so a
// panic during setup — planning, snapshotting, index lookup — fails the
// call, not the process:
//
//	func (s *Store) Eval(...) (res *Results, err error) {
//	    defer resilience.RecoverTo(&err)
//	    ...
//	}
func RecoverTo(err *error) {
	if p := recover(); p != nil {
		*err = NewPanicError(NoDoc, p)
	}
}
