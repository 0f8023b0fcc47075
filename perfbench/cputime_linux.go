//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the calling thread's CPU time, exact to the nanosecond
// (getrusage would lag by up to a scheduler tick), or -1 where it is
// unknown.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return -1
	}
	return time.Duration(ts.Nano())
}
