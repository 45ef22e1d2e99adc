// The experiments start no goroutine, so the race detector has nothing
// to find here and only slows them tenfold; CI runs them without -race.

//go:build !race

package experiments

import (
	"strings"
	"testing"
)

func TestMiniValidation(t *testing.T) {
	r, err := Mini(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 programs", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.CodeEvents == 0 || row.LoadEvents == 0 {
			t.Errorf("%s: empty trace", row.Program)
		}
		if row.CodeHotRanges == 0 {
			t.Errorf("%s: no hot code ranges", row.Program)
		}
		// Real traces must uphold the same accuracy story as the models:
		// small errors, bounded memory.
		if row.CodeAvgErr > 15 {
			t.Errorf("%s: code avg error %.2f%% too high", row.Program, row.CodeAvgErr)
		}
		if row.ValueAvgErr > 15 {
			t.Errorf("%s: value avg error %.2f%% too high", row.Program, row.ValueAvgErr)
		}
		if row.CodeMaxNodes > 4096 || row.ValueMaxNodes > 8192 {
			t.Errorf("%s: tree too large (code %d, value %d)",
				row.Program, row.CodeMaxNodes, row.ValueMaxNodes)
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "compress") {
		t.Fatal("print output malformed")
	}
}
