//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// preciseSleep has only the Go timer off Linux.
func preciseSleep(d time.Duration) { time.Sleep(d) }

// startChild has no parent-death signal to arm off Linux; the harness's own
// exit paths still stop every child.
func startChild(cmd *exec.Cmd) error { return cmd.Start() }
