package served

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzMetaLine is the meta entry openWAL writes for the fuzzed Options;
// prepending it makes the fuzz input the journal's payload, so the
// fuzzer explores replay semantics instead of only the meta guard.
const fuzzMetaLine = `{"run":"journal","status":"meta","detail":"hibserved-wal/1 check=false"}` + "\n"

const fuzzSHA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"

// FuzzWALReplay feeds arbitrary bytes to the write-ahead log replay.
// The contract under fuzz: replay either reconstructs a table whose
// every job sits in a state the lifecycle table can reach, or fails
// with a structured, line-numbered error — it never panics, never
// gives a job a state no edge leads to, and stays deterministic (a
// second replay of the same bytes agrees with the first).
func FuzzWALReplay(f *testing.F) {
	seed := func(lines ...string) []byte {
		return []byte(strings.Join(lines, "\n") + "\n")
	}
	acc := `{"run":"j1","status":"accepted","sha256":"` + fuzzSHA + `","detail":"{\"client\":\"a\",\"key\":\"k\"}"}`
	run := `{"run":"j1","status":"running","attempt":1}`
	f.Add(seed(acc, run, `{"run":"j1","status":"complete","detail":"{\"x\":1}"}`))
	f.Add(seed(acc, run, `{"run":"j1","status":"complete","detail":"{}"}`,
		`{"run":"j1","status":"delivered"}`, `{"run":"j1","status":"flushed"}`))
	f.Add(seed(acc, `{"run":"j1","status":"rejected"}`))
	f.Add(seed(acc, run, `{"run":"j1","status":"suspended","sha256":"beef"}`,
		`{"run":"j1","status":"accepted"}`, `{"run":"j1","status":"running","attempt":2}`))
	f.Add(seed(acc, run, `{"run":"j1","status":"suspended","sha256":"beef"}`, // resume rollback
		`{"run":"j1","status":"accepted"}`, `{"run":"j1","status":"suspended","detail":"resume refused: backlog full"}`))
	f.Add(seed(run))                                  // edge before accepted
	f.Add(seed(acc, `{"run":"j1","status":"bogus"}`)) // unknown status
	f.Add([]byte(acc + "\n" + `{"run":"j1","sta`))    // torn tail
	f.Add([]byte("\x00\x01garbage\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "jobs.jsonl")
		if err := os.WriteFile(path, append([]byte(fuzzMetaLine), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		w, order, _, err := openWAL(dir, Options{})
		if err != nil {
			// A refused log must say where it broke.
			if !strings.Contains(err.Error(), "line ") && !strings.Contains(err.Error(), "journal") {
				t.Fatalf("unstructured replay error: %v", err)
			}
			return
		}
		// Every replayed job sits in a state some table row leads to.
		reachable := map[string]bool{}
		for _, e := range lifecycle {
			reachable[e.to] = true
		}
		for _, j := range order {
			if !reachable[j.state] {
				t.Fatalf("job %s replayed into impossible state %q", j.id, j.state)
			}
			if j.state != stateNew && len(j.sha) != 64 {
				t.Fatalf("job %s survived replay without a scenario address", j.id)
			}
		}
		w.close()

		// Replay is deterministic: reopening (after the torn tail was
		// truncated) yields the same table.
		w2, order2, _, err := openWAL(dir, Options{})
		if err != nil {
			t.Fatalf("second replay refused what the first accepted: %v", err)
		}
		if len(order2) != len(order) {
			t.Fatalf("replay not deterministic: %d then %d jobs", len(order), len(order2))
		}
		for i := range order {
			if a, b := viewOf(order[i]), viewOf(order2[i]); a != b {
				t.Fatalf("replay not deterministic at %d: %+v vs %+v", i, a, b)
			}
		}
		w2.close()
	})
}
