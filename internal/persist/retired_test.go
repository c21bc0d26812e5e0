package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures under testdata were written by the last commit that had the
// encoders (SaveBinary for v2 and v3, Save of an accelerated ingestion for
// the v1 document, SaveFlat of an indexed ingestion for the posting
// sections) over the eleven-concept world of core's tests, and loaded there.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertRetired holds an error to what every retired form fails with: typed,
// naming the form and the way out, and never blamed on a checksum.
func assertRetired(t *testing.T, what string, err error, names ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: a retired form was accepted", what)
	}
	if !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("%s: error is not ErrCorruptBundle: %v", what, err)
	}
	for _, want := range append(names, "retired", "-format flat") {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error does not say %q: %v", what, want, err)
		}
	}
	if strings.Contains(err.Error(), "checksum") {
		t.Errorf("%s: a retired form reported as a checksum failure: %v", what, err)
	}
}

// TestRetiredFormsFailByName takes every input form this package used to
// read through every way in: each fails typed and named, and InspectFile
// still says what the file is.
func TestRetiredFormsFailByName(t *testing.T) {
	v2 := readFixture(t, "retired-v2.mrxb")
	cases := []struct {
		name    string
		data    []byte
		names   []string
		format  string
		version int
	}{
		{"binary v2", v2, []string{"MRXB"}, "binary v2", 2},
		{"binary v3", readFixture(t, "retired-v3.mrxb"), []string{"MRXB"}, "binary v3", 3},
		// Magic, version and CRC: all a reader looks at, and enough to name it.
		{"binary v2 header only", v2[:9], []string{"MRXB"}, "binary v2", 2},
		{"accelerated v1", readFixture(t, "retired-v1-accel.json"), []string{`"materialized"`}, "json v1", 1},
		{"flat section 86", flatBytes(t, parentFlatSections(t, buildSmallAccelIngestion(t))), []string{"section 86"}, "flat v4", 4},
		{"flat posting sections", readFixture(t, "retired-postings.flat"), []string{"candidate-index postings (sections 90–93)", "rebuild with -index"}, "flat v4", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bundle")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(bytes.NewReader(tc.data))
			assertRetired(t, "Load", err, tc.names...)
			_, err = LoadFile(path)
			assertRetired(t, "LoadFile", err, tc.names...)
			info, err := InspectFile(path)
			assertRetired(t, "InspectFile", err, tc.names...)
			if info == nil || info.Format != tc.format || info.Version != tc.version {
				t.Errorf("InspectFile reports %+v, want format %q version %d", info, tc.format, tc.version)
			}
		})
	}
}

// TestBinaryCorruptionFailsLoudly: a damaged binary stream is still a binary
// stream — it fails as the retired form it is, whatever else is wrong with it.
func TestBinaryCorruptionFailsLoudly(t *testing.T) {
	data := readFixture(t, "retired-v2.mrxb")
	load := func(t *testing.T, bad []byte) {
		t.Helper()
		_, err := Load(bytes.NewReader(bad))
		assertRetired(t, "Load", err, "MRXB")
	}
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[len(bad)/2] ^= 0xFF
		load(t, bad)
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(retiredBinaryMagic), len(data) / 4, len(data) / 2, len(data) - 1} {
			load(t, data[:cut])
		}
		if _, err := Load(bytes.NewReader(data[:1])); !errors.Is(err, ErrCorruptBundle) {
			t.Errorf("a stream cut inside the magic: %v, want ErrCorruptBundle", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[len(retiredBinaryMagic)] = 99
		load(t, bad)
	})
	t.Run("trailing garbage inside payload", func(t *testing.T) {
		// A well-framed stream — length and CRC covering two bytes the
		// sections do not consume — which only a decoder could fault.
		length, n := binary.Uvarint(data[9:])
		payload := append(append([]byte{}, data[9+n:9+n+int(length)]...), 0xAB, 0xCD)
		bad := append([]byte{}, data[:5]...)
		bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(payload))
		bad = binary.AppendUvarint(bad, uint64(len(payload)))
		load(t, append(bad, payload...))
	})
}

// TestSaveRefusesDerivedData: a v1 document of an ingestion that carries an
// accelerator would load as a slower world, so it is not written.
func TestSaveRefusesDerivedData(t *testing.T) {
	ing := buildSmallAccelIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); !errors.Is(err, ErrDerivedInJSON) {
		t.Errorf("Save of an accelerated ingestion: %v, want ErrDerivedInJSON", err)
	}
	if buf.Len() != 0 {
		t.Errorf("Save wrote %d bytes before refusing", buf.Len())
	}
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := SaveFileAtomic(path, ing, FormatJSON); !errors.Is(err, ErrDerivedInJSON) {
		t.Errorf("SaveFileAtomic of an accelerated ingestion as JSON: %v, want ErrDerivedInJSON", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused save left a file (stat err %v)", err)
	}
}

// TestParseFormat: two spellings, and the one that used to be the default is
// refused as retired rather than as a typo.
func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"flat": FormatFlat, "json": FormatJSON} {
		if got, err := ParseFormat(s); err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"binary", "v2", ""} {
		if _, err := ParseFormat(s); err == nil {
			t.Errorf("ParseFormat(%q) accepted", s)
		} else if retired := strings.Contains(err.Error(), "retired"); retired != (s == "binary") {
			t.Errorf("ParseFormat(%q): %v", s, err)
		}
	}
}
