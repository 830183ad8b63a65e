//go:build !linux

package main

import "time"

// waitUntil returns at t, up to the Go timer's slack late.
func waitUntil(t time.Time) { time.Sleep(time.Until(t)) }
