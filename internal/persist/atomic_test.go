package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"medrelax/internal/fault"
)

// armFaults installs a fault registry for the duration of one test.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	reg, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	fault.SetDefault(reg)
	t.Cleanup(func() { fault.SetDefault(nil) })
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	path := filepath.Join(t.TempDir(), "bundle")
	if err := SaveFileAtomic(path, ing, FormatFlat); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Graph.Len() != ing.Graph.Len() {
		t.Errorf("graph len = %d, want %d", restored.Graph.Len(), ing.Graph.Len())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("bundle mode = %v, want 0644", fi.Mode().Perm())
	}
	// There is one format: any other value publishes nothing.
	other := filepath.Join(t.TempDir(), "other")
	if err := SaveFileAtomic(other, ing, FormatFlat+1); err == nil {
		t.Error("SaveFileAtomic accepted a format that does not exist")
	}
	if _, err := os.Stat(other); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused save left a file (stat err %v)", err)
	}
}

// TestSaveFileAtomicNeverPublishesPartial injects a failure at every
// stage of the publish pipeline — torn write, failed fsync, failed
// rename — and asserts the atomicity contract each time: no file appears
// at the target path and no temp file survives.
func TestSaveFileAtomicNeverPublishesPartial(t *testing.T) {
	ing := buildIngestion(t)
	cases := []struct {
		name string
		spec string
	}{
		{"torn write", "persist.write:torn,bytes=1024,count=1"},
		{"torn write at zero", "persist.write:torn,bytes=0,count=1"},
		{"fsync failure", "persist.fsync:error,count=1"},
		{"rename failure", "persist.rename:error,count=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			armFaults(t, tc.spec)
			dir := t.TempDir()
			path := filepath.Join(dir, "bundle.flat")
			if err := SaveFileAtomic(path, ing, FormatFlat); err == nil {
				t.Fatal("save succeeded through an injected fault")
			}
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("partial bundle visible at target path (stat err %v)", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Errorf("temp litter after failed save: %v", entries)
			}
		})
	}
}

// TestSaveFileAtomicKeepsPreviousBundle proves a failed re-publish over
// an existing bundle leaves the old one byte-identical and loadable —
// the crash-safety property hot reload depends on.
func TestSaveFileAtomicKeepsPreviousBundle(t *testing.T) {
	ing := buildIngestion(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.flat")
	if err := SaveFileAtomic(path, ing, FormatFlat); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	armFaults(t, "persist.write:torn,bytes=512,count=1")
	if err := SaveFileAtomic(path, ing, FormatFlat); err == nil {
		t.Fatal("save succeeded through a torn writer")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous bundle gone after failed save: %v", err)
	}
	if string(before) != string(after) {
		t.Error("previous bundle modified by a failed save")
	}
	if _, err := LoadFile(path); err != nil {
		t.Errorf("previous bundle unloadable after failed save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory not clean after failed save: %v", entries)
	}
}

// TestBlockWriterBytes writes streams that end before, on and past block
// boundaries, in pieces that straddle them, and reads the files back: whole
// blocks go past the page cache where the filesystem allows, the tail never
// does, and the bytes are the stream's either way.
func TestBlockWriterBytes(t *testing.T) {
	src := make([]byte, 3*writeBlock+writeBlock/2+13)
	rng := rand.New(rand.NewSource(1))
	rng.Read(src)
	dir := t.TempDir()
	for _, size := range []int{0, 1, writeAlign, writeBlock - 1, writeBlock, writeBlock + 1, 2 * writeBlock, len(src)} {
		f, err := os.CreateTemp(dir, "blocks-*")
		if err != nil {
			t.Fatal(err)
		}
		bw := newBlockWriter(f, f)
		for rest := src[:size]; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(writeBlock/2))
			if _, err := bw.Write(rest[:n]); err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			rest = rest[n:]
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("size %d: flush: %v", size, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src[:size]) {
			t.Errorf("size %d: file differs from the stream (%d bytes on disk)", size, len(got))
		}
	}
}

// refusingWriter fails every write with EINVAL until its file is out of
// direct mode, as a filesystem does that takes O_DIRECT and then refuses the
// I/O.
type refusingWriter struct {
	bw *blockWriter
	f  *os.File
}

func (r *refusingWriter) Write(p []byte) (int, error) {
	if r.bw.direct {
		return 0, syscall.EINVAL
	}
	return r.f.Write(p)
}

func TestBlockWriterFallsBackWhenDirectRefused(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no direct I/O to refuse")
	}
	src := bytes.Repeat([]byte("medrelax"), (2*writeBlock+100)/8)
	f, err := os.CreateTemp(t.TempDir(), "refused-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rw := &refusingWriter{f: f}
	bw := newBlockWriter(f, rw)
	rw.bw = bw
	bw.direct = true // even where setDirect itself was refused
	if _, err := bw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Errorf("file differs from the stream after falling back (%d of %d bytes)", len(got), len(src))
	}
}

// TestBlockWriterTornPastFirstBlock tears the write inside the second block,
// where the temp file is in direct mode.
func TestBlockWriterTornPastFirstBlock(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "torn-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	armFaults(t, fmt.Sprintf("persist.write:torn,bytes=%d,count=1", writeBlock+1000))
	bw := newBlockWriter(f, fault.At("persist.write").WrapWriter(f))
	_, err = bw.Write(make([]byte, 3*writeBlock))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write through a torn writer: err = %v, want the injected fault", err)
	}
}

// TestLoadFaultSites proves the read-side fault hooks fire: an armed
// persist.open fails LoadFile before any I/O, and an armed persist.read
// fails the read of the bundle itself.
func TestLoadFaultSites(t *testing.T) {
	ing := buildIngestion(t)
	path := filepath.Join(t.TempDir(), "bundle.flat")
	if err := SaveFileAtomic(path, ing, FormatFlat); err != nil {
		t.Fatal(err)
	}

	armFaults(t, "persist.open:error,count=1")
	if _, err := LoadFile(path); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("persist.open fault not surfaced: %v", err)
	}
	// The count is exhausted: the next load succeeds.
	if _, err := LoadFile(path); err != nil {
		t.Errorf("load after fault exhaustion: %v", err)
	}

	armFaults(t, "persist.read:error,count=1")
	if _, err := LoadFile(path); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("persist.read fault not surfaced: %v", err)
	}
}

// TestLoadChecksEachFaultSiteOnce: a load asks persist.open once, so a site
// armed after one check lets the first load through and fails the second.
func TestLoadChecksEachFaultSiteOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.flat")
	if err := SaveFileAtomic(path, buildIngestion(t), FormatFlat); err != nil {
		t.Fatal(err)
	}
	armFaults(t, "persist.open:error,after=1,count=1")
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("the first load checked persist.open more than once: %v", err)
	}
	if _, err := LoadFile(path); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("the second load: %v, want the injected fault", err)
	}
}
