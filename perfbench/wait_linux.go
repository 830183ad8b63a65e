package main

import (
	"syscall"
	"time"
)

// waitUntil returns at t. It sleeps in nanosleep rather than on a Go
// timer: when every P is idle the runtime waits for timers in epoll
// with millisecond granularity, and that slip would be charged to every
// open-loop latency. The last stretch, shorter than the wake-up latency
// of nanosleep, is spun; spinning longer, or yielding in a loop, would
// starve the network poller and delay the daemon's own wake-ups.
func waitUntil(t time.Time) {
	for d := time.Until(t) - spinWindow; d > 0; d = time.Until(t) - spinWindow {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
	for time.Now().Before(t) {
	}
}

const spinWindow = 60 * time.Microsecond
