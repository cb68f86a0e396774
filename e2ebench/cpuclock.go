package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuNow reads the CPU clock of the calling OS thread; run locks the
// benchmark goroutine to its thread, so this is the pipeline's own CPU
// time, allocation and garbage-collector assists included.
//
// The end-to-end timings use it rather than the wall clock or the
// process CPU clock. On a shared virtual machine the wall clock also
// counts time the host gave the vCPU to someone else, and the process
// clock counts the collector's idle-time workers, which soak up the
// otherwise idle second CPU by an amount that varies from run to run.
// On an unloaded host the thread clock tracks the wall clock of this
// single-goroutine pipeline.
func cpuNow() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("e2ebench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}
