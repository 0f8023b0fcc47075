//go:build !linux

package main

import "time"

// threadCPU is unknown off Linux; the meter then falls back to wall time.
func threadCPU() time.Duration { return -1 }
