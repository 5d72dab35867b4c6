package fleet

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentFleetRunsByteIdentical runs several whole fleets at once —
// each with the invariant checker and per-tenant OnResponse attribution
// armed, each itself fanning out across the runner pool. Under -race this is the no-hidden-globals contract for
// the hook stack: every concurrent report must be byte-identical to the
// serial one.
func TestConcurrentFleetRunsByteIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Check = true
	cfg.Par = 2

	serial, err := Run(cfg)
	if err != nil {
		t.Fatalf("serial run failed: %v", err)
	}
	if !serial.Ok() {
		t.Fatalf("serial fleet not clean:\n%s", serial.Bytes())
	}

	const runs = 3
	reports := make([][]byte, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Run(cfg)
			if err != nil {
				t.Errorf("concurrent run %d failed: %v", i, err)
				return
			}
			reports[i] = rep.Bytes()
		}(i)
	}
	wg.Wait()

	for i, rep := range reports {
		if !bytes.Equal(rep, serial.Bytes()) {
			t.Errorf("concurrent run %d diverged from the serial report:\n%s", i, rep)
		}
	}
}
