package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hibernator/internal/journal"
	"hibernator/internal/runner"
	"hibernator/internal/scenario"
)

// SoakOptions configures one randomized soak.
type SoakOptions struct {
	Seed int64 // master seed; scenario i derives from (Seed, i)
	N    int   // scenarios to run

	// Workers is the runner pool width (0 = GOMAXPROCS, 1 = sequential).
	// It only changes wall-clock time: the report is byte-identical at
	// any width for fixed Seed and N.
	Workers int

	// ShrinkBudget caps the Execute calls spent minimizing each failure
	// (0 = DefaultShrinkBudget). One Execute is three simulation runs.
	ShrinkBudget int

	// OutDir, when non-empty, receives one repro file per failure,
	// named seed<Seed>-<index>.repro.
	OutDir string

	// InjectBug arms the deliberate energy-ledger skew (the PR 4
	// accounting-bug shape) on every generated scenario — a self-test
	// that the find->shrink->replay loop works end to end. The soak is
	// then expected to fail.
	InjectBug bool

	// Journal, when non-empty, records every scenario's verdict durably
	// in an append-only journal at this path, so a killed soak can resume.
	// The journal refuses to mix runs with different Seed/N/InjectBug
	// settings.
	Journal string

	// Resume skips scenarios whose verdicts the journal already records,
	// reusing the recorded verdict verbatim — the merged report is
	// byte-identical to an uninterrupted soak's.
	Resume bool

	// Context, when non-nil, cancels the soak between scenarios (signal
	// handling in cmd/hibchaos). Verdicts journaled before the
	// cancellation stay durable.
	Context context.Context

	// Log, when non-nil, receives progress lines (wall-clock friendly,
	// NOT deterministic — keep it on stderr, never in the report).
	Log io.Writer
}

// DefaultShrinkBudget bounds shrinking at 120 Execute calls (360 runs).
const DefaultShrinkBudget = 120

// SoakFailure is one failing scenario, minimized.
type SoakFailure struct {
	Index     int               // scenario index within the soak
	Original  scenario.Scenario // as generated
	Failure   Failure           // the original verdict
	Shrunk    ShrinkResult
	ReproPath string // "" when OutDir unset
}

// SoakReport aggregates a soak.
type SoakReport struct {
	Seed     int64
	N        int
	Failures []SoakFailure
}

// Ok reports a clean soak.
func (r *SoakReport) Ok() bool { return len(r.Failures) == 0 }

// Soak generates and judges N scenarios on a worker pool, shrinking every
// failure to a minimal reproducer. The error return is infrastructural
// (repro file I/O); oracle failures live in the report.
func Soak(opts SoakOptions) (*SoakReport, error) {
	if opts.N < 0 {
		return nil, fmt.Errorf("chaos: negative scenario count %d", opts.N)
	}
	budget := opts.ShrinkBudget
	if budget == 0 {
		budget = DefaultShrinkBudget
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var jnl *journal.Journal
	if opts.Journal != "" {
		meta := fmt.Sprintf("soak seed=%d n=%d injectbug=%t",
			opts.Seed, opts.N, opts.InjectBug)
		var err error
		if jnl, err = journal.Open(opts.Journal, meta); err != nil {
			return nil, err
		}
		defer jnl.Close()
	}
	type verdict struct {
		fail   *Failure
		sc     scenario.Scenario
		shrunk ShrinkResult
	}
	verdicts, err := runner.Map(ctx, opts.Workers, opts.N,
		func(_ context.Context, i int) (verdict, error) {
			id := fmt.Sprintf("scenario-%d", i)
			if jnl != nil && opts.Resume {
				if e, ok := jnl.Done(id); ok {
					var jv journaledVerdict
					if err := json.Unmarshal([]byte(e.Detail), &jv); err == nil {
						v := verdict{fail: jv.Fail, sc: jv.Scenario}
						if jv.Shrunk != nil {
							v.shrunk = *jv.Shrunk
						}
						return v, nil
					}
					// An undecodable verdict is re-run, not trusted.
				}
			}
			if jnl != nil {
				if err := jnl.Append(journal.Entry{Run: id, Status: journal.StatusRunning, Attempt: 1}); err != nil {
					return verdict{}, err
				}
			}
			sc := Generate(opts.Seed, i)
			if opts.InjectBug {
				armBug(&sc)
			}
			v := verdict{sc: sc}
			v.fail = Execute(&sc)
			if v.fail != nil {
				if opts.Log != nil {
					fmt.Fprintf(opts.Log, "chaos: scenario %d failed (%s); shrinking\n", i, v.fail.Kind)
				}
				v.shrunk, _ = Shrink(sc, budget)
			} else if opts.Log != nil && (i+1)%100 == 0 {
				fmt.Fprintf(opts.Log, "chaos: %d scenarios judged\n", i+1)
			}
			if jnl != nil {
				jv := journaledVerdict{Fail: v.fail, Scenario: v.sc}
				if v.fail != nil {
					shrunk := v.shrunk
					jv.Shrunk = &shrunk
				}
				blob, err := json.Marshal(jv)
				if err != nil {
					return verdict{}, err
				}
				if err := jnl.Append(journal.Entry{Run: id, Status: journal.StatusDone, Attempt: 1, Detail: string(blob)}); err != nil {
					return verdict{}, err
				}
			}
			return v, nil
		})
	if err != nil {
		return nil, err
	}

	rep := &SoakReport{Seed: opts.Seed, N: opts.N}
	for i, v := range verdicts {
		if v.fail == nil {
			continue
		}
		sf := SoakFailure{Index: i, Original: v.sc, Failure: *v.fail, Shrunk: v.shrunk}
		if opts.OutDir != "" {
			if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
				return nil, err
			}
			sf.ReproPath = filepath.Join(opts.OutDir, fmt.Sprintf("seed%d-%d.repro", opts.Seed, i))
			if err := scenario.SaveRepro(sf.ReproPath, &sf.Shrunk.Scenario); err != nil {
				return nil, err
			}
		}
		rep.Failures = append(rep.Failures, sf)
	}
	return rep, nil
}

// journaledVerdict is the JSON payload one scenario's verdict journals
// as: everything the report needs, so a resumed soak reprints the exact
// bytes an uninterrupted one would have.
type journaledVerdict struct {
	Fail     *Failure          `json:"fail,omitempty"`
	Scenario scenario.Scenario `json:"scenario"`
	Shrunk   *ShrinkResult     `json:"shrunk,omitempty"`
}

// armBug plants the deliberate energy-ledger skew mid-run on a
// scenario-dependent disk.
func armBug(s *scenario.Scenario) {
	s.BugEnergySkew = 12345
	s.BugSkewAt = snap(s.Duration * 0.5)
	s.BugSkewDisk = int(s.Seed) % s.TotalDisks()
	if s.BugSkewDisk < 0 {
		s.BugSkewDisk += s.TotalDisks()
	}
}

// Write renders the report. The output is deterministic: a pure function
// of (Seed, N) and the scenario verdicts — no wall-clock, no ordering
// artifacts — so `hibchaos -seed S -n N` is byte-identical across -par
// widths and across invocations.
func (r *SoakReport) Write(w io.Writer) error {
	fmt.Fprintf(w, "hibchaos soak: seed=%d n=%d\n", r.Seed, r.N)
	fmt.Fprintf(w, "scenarios: %d run, %d ok, %d failed\n", r.N, r.N-len(r.Failures), len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure at scenario %d:\n", f.Index)
		fmt.Fprintf(w, "  original: %s\n", f.Original.String())
		fmt.Fprintf(w, "  kind:     %s\n", f.Failure.Kind)
		fmt.Fprintf(w, "  detail:   %s\n", f.Failure.Detail)
		fmt.Fprintf(w, "  shrunk:   %s\n", f.Shrunk.Scenario.String())
		fmt.Fprintf(w, "  shrink:   %d step(s), %d run(s)", len(f.Shrunk.Steps), f.Shrunk.Runs)
		for _, st := range f.Shrunk.Steps {
			fmt.Fprintf(w, "\n            - %s", st)
		}
		fmt.Fprintln(w)
		if f.Shrunk.Failure.Kind != "" && f.Shrunk.Failure.Kind != f.Failure.Kind {
			fmt.Fprintf(w, "  note:     failure kind changed while shrinking (%s -> %s)\n",
				f.Failure.Kind, f.Shrunk.Failure.Kind)
		}
		if f.ReproPath != "" {
			fmt.Fprintf(w, "  repro:    %s\n", f.ReproPath)
		}
	}
	if r.Ok() {
		_, err := fmt.Fprintln(w, "result: ok")
		return err
	}
	_, err := fmt.Fprintf(w, "result: FAIL (%d failing scenario(s))\n", len(r.Failures))
	return err
}
