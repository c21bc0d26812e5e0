package persist

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// mapRef is the core.SnapshotBacking for a flat bundle: it reports how the
// bytes are resident and, for real memory mappings, owns the mapping's
// lifetime. The Ingestion holds the mapRef; the mapping is released either
// explicitly via Close (a drained snapshot being retired — replica
// restarts must not wait on GC timing) or by the finalizer backstop once
// the Ingestion — the mapRef's only holder — is unreachable. A view into the
// mapping does not hold it: the mapping is not heap memory, so a column
// slice is no pointer the collector follows to the mapRef, and a caller that
// keeps columns (FlatData) and drops the Ingestion reads unmapped memory
// after the next collection. Whoever reads views keeps the Ingestion
// reachable for as long (runtime.KeepAlive, or simply holding it).
type mapRef struct {
	size   int64
	mapped bool

	mu   sync.Mutex
	data []byte // the live mapping; nil for heap-backed refs and after release
}

// Mapped implements core.SnapshotBacking.
func (h *mapRef) Mapped() bool { return h.mapped }

// SizeBytes implements core.SnapshotBacking.
func (h *mapRef) SizeBytes() int64 { return h.size }

// Close unmaps the bundle now instead of at GC time. Idempotent. The
// caller owns the safety argument: every view into the mapping must be
// drained first — reading a flat snapshot after Close faults.
func (h *mapRef) Close() error {
	h.release()
	// The finalizer only exists to unmap; once that's done, keeping it
	// would just delay reclamation of the ref itself.
	runtime.SetFinalizer(h, nil)
	return nil
}

// release unmaps the bundle. Called by Close, the finalizer, or eagerly
// when opening fails after the map succeeded.
func (h *mapRef) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.mapped && h.data != nil {
		_ = munmapBytes(h.data)
		h.data = nil
	}
}

// mapBundle opens path for zero-copy reading: a read-only memory mapping
// where the platform provides one, otherwise one aligned heap buffer
// holding the whole file. Either way the returned bytes are 8-byte aligned
// and immutable, and the mapRef describes their residency.
func mapBundle(path string) ([]byte, *mapRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("bundle of %d bytes exceeds the address space", size)
	}
	if size > 0 {
		if data, err := mmapFile(f, int(size)); err == nil {
			h := &mapRef{size: size, mapped: true, data: data}
			runtime.SetFinalizer(h, (*mapRef).release)
			return data, h, nil
		}
		// Mapping unavailable (platform or filesystem): fall through to the
		// read-file path, which serves the same bytes from the heap.
	}
	buf := alignedBytes(int(size))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, nil, err
	}
	return buf, &mapRef{size: size}, nil
}
