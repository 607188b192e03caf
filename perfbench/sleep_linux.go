package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in the kernel for about d. A Go
// time.Sleep under a millisecond can wake a whole millisecond late when
// the runtime parks in its network poller; nanosleep wakes within tens of
// microseconds and, unlike spinning, leaves the processor to the server.
// An interrupted sleep returns early; callers re-check the clock.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
