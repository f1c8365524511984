package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the stream golden instead of comparing against it:
//
//	go test ./internal/trace -run TestWorkloadStreamGolden -update
var update = flag.Bool("update", false, "rewrite the workload stream golden")

// streamGoldenLen is the number of accesses hashed per (workload, seed):
// long enough that every pointer-chase stand-in hops past several growths of
// its memoized visit order.
const streamGoldenLen = 1 << 18

var streamGoldenSeeds = []uint64{1, 7}

// streamDigest hashes the first n accesses of r, each encoded as PC, VAddr,
// Gap (little-endian uint64s) and a write byte.
func streamDigest(r Reader, n int) string {
	h := sha256.New()
	batch := make([]Access, 4096)
	buf := make([]byte, 0, 25*len(batch))
	for n > 0 {
		m := min(n, len(batch))
		got := fillBatch(r, batch[:m])
		buf = buf[:0]
		for _, a := range batch[:got] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.PC))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.VAddr))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Gap))
			w := byte(0)
			if a.Write {
				w = 1
			}
			buf = append(buf, w)
		}
		h.Write(buf)
		if got < m {
			break
		}
		n -= m
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorkloadStreamGolden pins the access stream of every catalogue
// generator at the trace layer: a generator change shows up here, naming the
// workload and seed, before it perturbs any simulation digest. Regenerate
// after an intentional change with -update (or make golden-update).
func TestWorkloadStreamGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range All() {
		for _, seed := range streamGoldenSeeds {
			fmt.Fprintf(&b, "%s %d %s\n", w.Name, seed, streamDigest(w.New(seed), streamGoldenLen))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "stream_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("stream golden has %d lines, catalogue gives %d (regenerate with -update)", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("stream drifted:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
