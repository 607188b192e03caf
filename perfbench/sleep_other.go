//go:build !linux

package main

import "time"

// preciseSleep falls back to time.Sleep where nanosleep is not wrapped.
func preciseSleep(d time.Duration) { time.Sleep(d) }
