package allocgate

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"npbgo/internal/perfcount"
)

// TestGate measures every budgeted configuration and asserts the
// steady-state allocations per Step stay within budget. Class S gates
// always run; the W gates are skipped under -short (they execute
// full-size iterations — EP's W iteration alone is seconds of work).
//
// AllocsPerRun counts mallocs process-wide, so a stray background
// allocation (GC worker, timer) can leak into a small sample; a gate
// only fails after a second measurement confirms the excess.
func TestGate(t *testing.T) {
	keys := make([]Key, 0, len(Budgets))
	for k := range Budgets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Bench != keys[j].Bench {
			return keys[i].Bench < keys[j].Bench
		}
		return keys[i].Class < keys[j].Class
	})

	for _, k := range keys {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			if k.Class != 'S' && testing.Short() {
				t.Skipf("class %c gate skipped in -short mode", k.Class)
			}
			warm, runs := 2, 10
			if k.Class != 'S' {
				warm, runs = 1, 2
			}
			budget := Budgets[k]
			got, err := Measure(k, warm, runs)
			if err != nil {
				t.Fatal(err)
			}
			if got > float64(budget) {
				// Confirm before failing: absorb one-off process noise.
				got, err = Measure(k, warm, runs)
				if err != nil {
					t.Fatal(err)
				}
			}
			if got > float64(budget) {
				t.Errorf("%s: %.1f allocs per Step, budget %d (budgets.go)", k, got, budget)
			}
		})
	}
}

// TestGateCounters asserts the counter sampling hot path is
// allocation-free: a region on a sampled team must cost exactly as
// many allocations as on an unsampled one — zero.
func TestGateCounters(t *testing.T) {
	got, err := MeasureCounters(5, 20)
	if err != nil {
		var ue *perfcount.UnavailableError
		if errors.As(err, &ue) {
			t.Skipf("software counters unavailable here: %v", err)
		}
		t.Fatal(err)
	}
	if got > 0 {
		// Confirm before failing: absorb one-off process noise.
		if got, err = MeasureCounters(5, 20); err != nil {
			t.Fatal(err)
		}
	}
	if got > 0 {
		t.Errorf("sampled region: %.1f allocs per region, budget 0", got)
	}
}

// TestMeasureUnknown covers the error path for a benchmark name that
// is not wired into the gate.
func TestMeasureUnknown(t *testing.T) {
	if _, err := Measure(Key{Bench: "nope", Class: 'S'}, 0, 1); err == nil {
		t.Fatal("Measure accepted unknown benchmark")
	}
	if _, err := Measure(Key{Bench: "cg", Class: 'Q'}, 0, 1); err == nil {
		t.Fatal("Measure accepted unknown class")
	}
}

// ExampleKey_String pins the gate naming used in test output and CI
// logs.
func ExampleKey_String() {
	fmt.Println(Key{Bench: "ep", Class: 'S'})
	// Output: ep.S
}
