package core

import "testing"

func TestBatchGridMatchesSerialRuns(t *testing.T) {
	variants := []NetworkParams{Baseline()}
	p2 := Baseline()
	p2.RouterDelay = 2
	variants = append(variants, p2)
	ms := []int{1, 4}

	grid, err := BatchGrid(variants, ms, BatchParams{B: 100})
	if err != nil {
		t.Fatal(err)
	}
	for vi, variant := range variants {
		for mi, m := range ms {
			serial, err := Batch(variant, BatchParams{B: 100, M: m})
			if err != nil {
				t.Fatal(err)
			}
			cell := grid[vi][mi]
			if cell == nil {
				t.Fatalf("missing cell %d/%d", vi, mi)
			}
			if cell.Runtime != serial.Runtime {
				t.Errorf("%s m=%d: grid %d vs serial %d (determinism broken in parallel)",
					variant, m, cell.Runtime, serial.Runtime)
			}
		}
	}
}

func TestBatchGridPropagatesErrors(t *testing.T) {
	bad := Baseline()
	bad.Routing = "zigzag"
	if _, err := BatchGrid([]NetworkParams{bad}, []int{1}, BatchParams{B: 10}); err == nil {
		t.Error("invalid variant accepted")
	}
}
