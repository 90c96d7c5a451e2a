package npbgo_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"npbgo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/detail_S.golden from the current code")

// goldenDetails runs every benchmark at class S on 1 and 2 threads and
// concatenates the verification printouts under "== <B>.S.t<n>" headers.
func goldenDetails(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, b := range npbgo.Benchmarks() {
		for _, threads := range []int{1, 2} {
			res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: threads})
			if err != nil {
				t.Fatalf("%s.S t%d: %v", b, threads, err)
			}
			fmt.Fprintf(&sb, "== %s.S.t%d\n%s", b, threads, res.Detail)
		}
	}
	return sb.String()
}

// TestDetailGolden pins the class-S verification printout of all eight
// benchmarks at 1 and 2 threads. Detail prints every computed value at
// full float64 precision, so an unchanged file is a bit-identity check
// on the numerical results. Regenerate with `go test -run
// TestDetailGolden -update .` only when a change is meant to move them.
func TestDetailGolden(t *testing.T) {
	const path = "testdata/detail_S.golden"
	got := goldenDetails(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("class-S Detail diverged from %s:\n%s\nwant:\n%s", path, got, want)
	}
}
