//go:build linux

package persist

import (
	"os"
	"syscall"
)

// setDirect switches O_DIRECT on an open file. A filesystem without direct
// I/O refuses with EINVAL here or at the first write.
func setDirect(f *os.File, on bool) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if cerr := rc.Control(func(fd uintptr) {
		var flags uintptr
		if flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0); errno != 0 {
			return
		}
		if on {
			flags |= syscall.O_DIRECT
		} else {
			flags &^= syscall.O_DIRECT
		}
		_, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_SETFL, flags)
	}); cerr != nil {
		return cerr
	}
	if errno != 0 {
		return errno
	}
	return nil
}
