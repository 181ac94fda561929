package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits for an open-loop schedule's due times on a Linux timerfd
// registered with the runtime's network poller. The runtime's own
// timers wake sub-millisecond sleeps up to a millisecond late, and
// spinning instead keeps a processor from polling the network, which
// delays every reply; a timerfd wakes the poller within microseconds
// and costs no processor while it waits.
type pacer struct {
	fd int
	f  *os.File
}

// itimerspec mirrors struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.File use the runtime poller.
	return &pacer{fd: int(fd), f: os.NewFile(fd, "pacer")}, nil
}

// waitUntil returns at due, or at once when due has passed.
func (p *pacer) waitUntil(due time.Time) error {
	d := time.Until(due)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("reading timerfd: %w", err)
	}
	return nil
}

func (p *pacer) close() error { return p.f.Close() }
