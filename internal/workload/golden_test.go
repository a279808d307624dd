package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenRefs is the stream prefix each golden digest covers.
const goldenRefs = 1_000_000

// goldenSeeds are the stream seeds the digests are pinned at: 0 keeps each
// model's own seed (the paper-calibrated stream every experiment uses), a
// nonzero seed replaces it as sweep.Job.Seed does.
var goldenSeeds = []uint64{0, 12345}

// streamDigest returns the SHA-256 of the first refs references of w, each
// hashed as its PC then its VAddr, little-endian.
func streamDigest(w Workload, refs uint64) string {
	h := sha256.New()
	buf := make([]byte, 0, 16*4096)
	Generate(w, refs, func(pc, vaddr uint64) bool {
		buf = binary.LittleEndian.AppendUint64(buf, pc)
		buf = binary.LittleEndian.AppendUint64(buf, vaddr)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		return true
	})
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStreamDigests pins every registry workload's reference stream,
// and the block-grained streams ByName also resolves.
// Sweep cells are keyed by workload name and seed, not by stream content,
// so a generator change that moves any reference would silently invalidate
// stored results. The digests in testdata/stream_digests.txt may change
// only together with a deliberate generator bump that is visible in the
// cell key; a failure here otherwise means a stream moved by accident.
func TestGoldenStreamDigests(t *testing.T) {
	want := readGoldenDigests(t)
	pinned := append(All(), BlockStreams()...)
	for _, w := range pinned {
		for _, seed := range goldenSeeds {
			id := fmt.Sprintf("%s %d", w.Name, seed)
			t.Run(w.Name+"/"+strconv.FormatUint(seed, 10), func(t *testing.T) {
				t.Parallel()
				sw := w
				if seed != 0 {
					sw.Seed = seed
				}
				got := streamDigest(sw, goldenRefs)
				if want[id] != got {
					t.Errorf("stream digest moved; got line:\n%s %s", id, got)
				}
			})
		}
	}
	if n := len(pinned) * len(goldenSeeds); len(want) != n {
		t.Errorf("golden file has %d digests, want %d (one per workload and seed)", len(want), n)
	}
}

// readGoldenDigests parses "name seed sha256" lines; '#' starts a comment.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/stream_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		out[fs[0]+" "+fs[1]] = fs[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
