//go:build !linux

package persist

import (
	"errors"
	"os"
)

// setDirect keeps non-Linux platforms on buffered writes.
func setDirect(_ *os.File, _ bool) error {
	return errors.New("persist: direct I/O not supported on this platform")
}
