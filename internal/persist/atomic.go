package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"unsafe"

	"medrelax/internal/core"
	"medrelax/internal/fault"
)

// Format selects the on-disk encoding for SaveFileAtomic.
type Format int

const (
	// FormatFlat is the served v4 encoding (SaveFlat).
	FormatFlat Format = iota
	// FormatJSON is the inspectable v1 encoding (Save).
	FormatJSON
)

// ParseFormat maps the CLI spelling ("flat" or "json") to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "flat":
		return FormatFlat, nil
	case "json":
		return FormatJSON, nil
	case "binary":
		return 0, fmt.Errorf("persist: bundle format %q is retired (want flat or json)", s)
	}
	return 0, fmt.Errorf("persist: unknown bundle format %q (want flat or json)", s)
}

// SaveFileAtomic writes the ingestion to path crash-safely: the bundle is
// written to a temporary file in the same directory, flushed and fsynced,
// and only then renamed over path (followed by a directory fsync so the
// rename itself is durable). A crash — or an injected fault — at any
// point leaves either the previous bundle or no file at path, never a
// torn one; the temporary file is removed on every failure path. Combined
// with Load's checksums this is the full crash-safety story: writers
// can't publish a partial bundle, and readers reject one anyway if the
// storage layer tears it.
//
// The temp file is written past the page cache (see blockWriter).
//
// Fault sites: "persist.write" (torn writes into the temp file),
// "persist.fsync" (flush/fsync failure), "persist.rename" (failure at the
// publish step).
func SaveFileAtomic(path string, ing *core.Ingestion, format Format) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bundle-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: creating temp bundle: %w", err)
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()

	var w io.Writer = fault.At("persist.write").WrapWriter(tmp)
	bw := newBlockWriter(tmp, w)
	switch format {
	case FormatJSON:
		err = Save(bw, ing)
	case FormatFlat:
		err = SaveFlat(bw, ing)
	default:
		err = fmt.Errorf("persist: unknown format %d", format)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("persist: writing bundle to %q: %w", tmpName, err)
	}
	if err := fault.At("persist.fsync").Inject(); err != nil {
		return fmt.Errorf("persist: fsync %q: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("persist: fsync %q: %w", tmpName, err)
	}
	// Temp files are 0600; bundles are world-readable like os.Create's.
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("persist: chmod %q: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing %q: %w", tmpName, err)
	}
	if err := fault.At("persist.rename").Inject(); err != nil {
		return fmt.Errorf("persist: renaming %q to %q: %w", tmpName, path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("persist: renaming %q to %q: %w", tmpName, path, err)
	}
	committed = true
	// Fsync the directory so the rename survives a crash. Failure here is
	// reported (the caller may retry) but the visible file is already
	// complete and valid either way.
	if d, derr := os.Open(dir); derr == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			return fmt.Errorf("persist: fsync directory %q: %w", dir, serr)
		}
	}
	return nil
}

const (
	writeBlock = 1 << 20 // bytes per write of the temp file
	writeAlign = 4096    // what direct I/O asks of addresses, offsets and lengths
)

// blockWriter writes the temp file in whole aligned blocks with O_DIRECT and
// its tail, shorter than a block, buffered. A bundle is written once and
// fsynced at once, so the page cache has nothing to give a save, and on a
// shared host going through it is most of a flat save's time and nearly all
// of its run-to-run spread (97 MB: 0.6–2.0 s through the cache, 0.2–0.3 s
// past it). The first reader pays the disk read instead. Where the file
// cannot take direct I/O the same blocks go through the cache.
type blockWriter struct {
	f      *os.File
	w      io.Writer // f behind the persist.write fault site
	buf    []byte
	n      int
	direct bool
}

func newBlockWriter(f *os.File, w io.Writer) *blockWriter {
	raw := make([]byte, writeBlock+writeAlign)
	off := -int(uintptr(unsafe.Pointer(&raw[0]))) & (writeAlign - 1)
	return &blockWriter{f: f, w: w, buf: raw[off : off+writeBlock], direct: setDirect(f, true) == nil}
}

func (b *blockWriter) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		c := copy(b.buf[b.n:], p[done:])
		b.n += c
		done += c
		if b.n == len(b.buf) {
			if err := b.writeBlock(); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}

// Flush writes the tail.
func (b *blockWriter) Flush() error {
	if b.n == 0 {
		return nil
	}
	if err := b.buffered(); err != nil {
		return err
	}
	return b.writeBlock()
}

func (b *blockWriter) writeBlock() error {
	n, err := b.w.Write(b.buf[:b.n])
	if n == 0 && b.direct && errors.Is(err, syscall.EINVAL) {
		// The filesystem took the flag and refuses the I/O.
		if err = b.buffered(); err == nil {
			_, err = b.w.Write(b.buf[:b.n])
		}
	}
	b.n = 0
	return err
}

func (b *blockWriter) buffered() error {
	if !b.direct {
		return nil
	}
	b.direct = false
	return setDirect(b.f, false)
}
