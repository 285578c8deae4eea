package memo

// Hooks for the idle-release test, which runs in package memo_test to
// drive the pipeline and the memory hierarchy.

const IdleDelay = idleDelay

var Skew = &skew

func ReleaseIdle() { releaseIdle() }

func Armed() bool { return idle.armed.Load() }
