package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Fanout bounds how many of a preparation's independent units — the
// tuples of PrepareRelationFanout, the telescoping phases of a tuple's
// volume pass — run on goroutines of their own at once. A unit takes a
// free slot, or runs on its caller's goroutine when none is free; the
// last unit always runs on the caller's. A busy Fanout therefore falls
// back to the sequential loop, and a nil *Fanout has no slots: every
// unit runs on the caller, one after another.
//
// Its callers keep scheduling out of every result: each unit draws from
// an RNG split up front in the sequential order, and the units' results
// are folded back in index order, so a preparation is bit-identical at
// any width. A Fanout is safe for concurrent use; one instance may
// serve any number of preparations, nested fan-outs included (a unit
// holding a slot only ever tries for more, it never waits).
type Fanout struct{ slots chan struct{} }

// NewFanout returns a Fanout with width slots (minimum 1).
func NewFanout(width int) *Fanout {
	if width < 1 {
		width = 1
	}
	return &Fanout{slots: make(chan struct{}, width)}
}

// each runs unit(0), …, unit(n-1) and returns the lowest failing index
// with its error, or (n, nil) when every unit succeeds. Units below the
// returned index ran to completion; units above it may not have run, as
// no further unit starts once one has failed. A panicking unit returns
// as that unit's error, with the panicking goroutine's stack (on a
// spawned goroutine it would otherwise kill the process).
func (f *Fanout) each(n int, unit func(i int) error) (int, error) {
	errs := make([]error, n)
	var failed atomic.Bool
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("core: preparation unit %d of %d panicked: %v\n%s", i, n, r, debug.Stack())
			}
			if errs[i] != nil {
				failed.Store(true)
			}
		}()
		errs[i] = unit(i)
	}
	var wg sync.WaitGroup
	// Units start in index order, so once one fails every unit not yet
	// started lies above the lowest failing index: its result would be
	// discarded, and it is skipped.
	for i := 0; i < n && !failed.Load(); i++ {
		if f != nil && i < n-1 && f.tryAcquire() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer f.release()
				run(i)
			}()
			continue
		}
		run(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return n, nil
}

func (f *Fanout) tryAcquire() bool {
	select {
	case f.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (f *Fanout) release() { <-f.slots }
