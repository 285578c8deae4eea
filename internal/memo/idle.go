package memo

import (
	"sync/atomic"
	"time"
)

// The idle release. Warm servers fill the memos while they set up and then
// serve for a long time without simulating; memos nobody consults are only
// memory. The first Touch arms a timer (an AfterFunc, so no goroutine waits
// while the memos are empty); when it fires it resets every table if
// nothing touched them for idleDelay, and otherwise re-arms itself for the
// remaining time.

// idleDelay is how long the memos outlive the last Touch. Without the
// release, miragebench's serve-warm and fleet-warm maxrss_mb rose 10% and
// 16%.
const idleDelay = time.Second

var idle struct {
	armed atomic.Bool
	last  atomic.Int64 // clock at the last Touch
	timer *time.Timer
}

var epoch = time.Now()

// skew is added to the idle clock; tests advance it instead of sleeping.
var skew atomic.Int64

// clock reads the idle clock in nanoseconds.
func clock() int64 { return int64(time.Since(epoch)) + skew.Load() }

func init() {
	idle.timer = time.AfterFunc(idleDelay, releaseIdle)
	idle.timer.Stop()
}

// Touch records a use of the memos and arms the idle timer if it is not.
func Touch() {
	idle.last.Store(clock())
	if !idle.armed.Load() && idle.armed.CompareAndSwap(false, true) {
		idle.timer.Reset(idleDelay)
	}
}

// releaseIdle runs on the idle timer.
func releaseIdle() {
	last := idle.last.Load()
	if d := time.Duration(clock() - last); d < idleDelay {
		idle.timer.Reset(idleDelay - d)
		return
	}
	idle.armed.Store(false)
	Reset()
	// A Touch that slipped in since the idle check may have stored an
	// entry without arming: keep watching it.
	if idle.last.Load() != last && idle.armed.CompareAndSwap(false, true) {
		idle.timer.Reset(idleDelay)
	}
}
