package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// wakeTimer sleeps with microsecond precision without holding a
// scheduler thread. time.Sleep rounds sub-millisecond waits up to the
// runtime netpoller's 1 ms tick whenever the process is idle, which
// would make an open-loop generator pacing requests 200–400 µs apart
// run ~1 ms late on every send and measure the runtime's timer instead
// of the server. A timerfd read parks the goroutine in the netpoller,
// which the kernel wakes the moment the timer fires.
type wakeTimer struct {
	fd int
	f  *os.File
}

func newWakeTimer() (*wakeTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, // CLOCK_MONOTONIC
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &wakeTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns once t has passed.
func (w *wakeTimer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}, each {tv_sec, tv_nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err
}

func (w *wakeTimer) Close() error { return w.f.Close() }
