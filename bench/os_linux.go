//go:build linux

package main

import (
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// preciseSleep parks the calling thread in nanosleep(2) rather than on a Go
// timer: an idle Go scheduler wakes timers through epoll, whose timeout
// rounds up to a millisecond, and at 3,000 arrivals a second that rounding
// would be most of every latency measured from a due time.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	if err := syscall.Nanosleep(&ts, nil); err != nil {
		time.Sleep(d) // interrupted: the remainder is short either way
	}
}

// The kernel delivers a parent-death signal when the *thread* that forked
// the child exits, so every child is started from one goroutine locked to
// one OS thread that lives as long as the harness. If the harness is killed
// in a way it cannot handle (SIGKILL, a driver's timeout), its servers die
// with it instead of holding their ports and the CPU for the next run.
var spawnRequests = make(chan spawnRequest)

type spawnRequest struct {
	cmd  *exec.Cmd
	done chan error
}

func init() {
	go func() {
		runtime.LockOSThread()
		for req := range spawnRequests {
			req.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			req.done <- req.cmd.Start()
		}
	}()
}

func startChild(cmd *exec.Cmd) error {
	req := spawnRequest{cmd: cmd, done: make(chan error, 1)}
	spawnRequests <- req
	return <-req.done
}
