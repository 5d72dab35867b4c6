package chaos

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"

	"hibernator/internal/invariant"
	"hibernator/internal/sim"
	"hibernator/internal/snapshot"
)

// Fingerprint collapses a run to the scalars any accounting or determinism
// bug would disturb. Comparison is exact (==): the simulator is
// deterministic, so two runs of the same scenario must agree bit for bit.
type Fingerprint struct {
	Requests  uint64
	CacheHits uint64
	MeanResp  float64
	P95Resp   float64
	P99Resp   float64
	MaxResp   float64
	Energy    float64

	SpinUps, SpinDowns, LevelShifts uint64
	Migrations, MigratedBytes       uint64
	Destages                        uint64
	GoalViolationFrac               float64

	Faults sim.FaultSummary
}

// FingerprintOf extracts the comparison scalars from a run — the
// canonical "what this simulation computed" record the job server and
// the load harness byte-compare across execution paths.
func FingerprintOf(r *sim.Result) Fingerprint { return fingerprintOf(r) }

// fingerprintOf extracts the comparison scalars from a run.
func fingerprintOf(r *sim.Result) Fingerprint {
	return Fingerprint{
		Requests: r.Requests, CacheHits: r.CacheHits,
		MeanResp: r.MeanResp, P95Resp: r.P95Resp, P99Resp: r.P99Resp, MaxResp: r.MaxResp,
		Energy:  r.Energy,
		SpinUps: r.SpinUps, SpinDowns: r.SpinDowns, LevelShifts: r.LevelShifts,
		Migrations: r.Migrations, MigratedBytes: r.MigratedBytes,
		Destages:          r.Destages,
		GoalViolationFrac: r.GoalViolationFrac,
		Faults:            r.Faults,
	}
}

// diff names the first fields two fingerprints disagree on (for reports).
func (f Fingerprint) diff(g Fingerprint) string {
	var out []string
	add := func(name string, a, b any) {
		if len(out) < 4 && a != b {
			out = append(out, fmt.Sprintf("%s %v != %v", name, a, b))
		}
	}
	add("requests", f.Requests, g.Requests)
	add("cache-hits", f.CacheHits, g.CacheHits)
	add("mean-resp", f.MeanResp, g.MeanResp)
	add("p95", f.P95Resp, g.P95Resp)
	add("p99", f.P99Resp, g.P99Resp)
	add("max-resp", f.MaxResp, g.MaxResp)
	add("energy", f.Energy, g.Energy)
	add("spin-ups", f.SpinUps, g.SpinUps)
	add("spin-downs", f.SpinDowns, g.SpinDowns)
	add("level-shifts", f.LevelShifts, g.LevelShifts)
	add("migrations", f.Migrations, g.Migrations)
	add("migrated-bytes", f.MigratedBytes, g.MigratedBytes)
	add("destages", f.Destages, g.Destages)
	add("goal-violations", f.GoalViolationFrac, g.GoalViolationFrac)
	add("faults", f.Faults, g.Faults)
	if len(out) == 0 {
		return "fingerprints agree"
	}
	return strings.Join(out, "; ")
}

// Failure kinds, in the order the oracles run.
const (
	FailError     = "error"            // sim.Run rejected the scenario
	FailPanic     = "panic"            // the simulation panicked
	FailInvariant = "invariant"        // the armed checker found violations
	FailRepeat    = "repeat-mismatch"  // an identical rerun diverged
	FailArmed     = "armed-mismatch"   // arming the checker changed the run
	FailRestore   = "restore-mismatch" // snapshot+restore diverged from straight-through
)

// Failure describes one oracle verdict against a scenario. Detail is
// deterministic (no wall-clock, no addresses, no goroutine stacks), so
// soak reports containing it are byte-identical across runs and -par
// widths; the panicking frame's file:line is included for debugging.
type Failure struct {
	Kind   string
	Detail string
}

// Error implements error so failures flow through error plumbing.
func (f *Failure) Error() string { return f.Kind + ": " + f.Detail }

// runOnce executes the scenario once, optionally with the invariant
// checker armed, converting panics anywhere in the simulation into a
// FailPanic failure.
func (s *Scenario) runOnce(armed bool) (*sim.Result, *invariant.Checker, *Failure) {
	return s.runWith(armed, nil)
}

// runWith is runOnce with a config hook: the kill-and-restore oracle uses
// it to arm snapshot capture or restore on an otherwise identical run.
func (s *Scenario) runWith(armed bool, mutate func(*sim.Config)) (res *sim.Result, chk *invariant.Checker, fail *Failure) {
	cfg, err := s.simConfig()
	if err != nil {
		return nil, nil, &Failure{Kind: FailError, Detail: err.Error()}
	}
	if armed {
		chk = invariant.New()
		cfg.Invariants = chk
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := s.controller()
	if err != nil {
		return nil, nil, &Failure{Kind: FailError, Detail: err.Error()}
	}
	src, err := s.source(cfg)
	if err != nil {
		return nil, nil, &Failure{Kind: FailError, Detail: err.Error()}
	}
	defer func() {
		if r := recover(); r != nil {
			// The detail stays deterministic: the panic value plus the
			// innermost non-runtime frame, never the full stack (goroutine
			// IDs and argument addresses would break report determinism).
			fail = &Failure{Kind: FailPanic, Detail: fmt.Sprintf("%v at %s", r, panicSite())}
			res, chk = nil, nil
		}
	}()
	res, err = sim.Run(cfg, src, ctrl, s.Duration)
	if err != nil {
		return nil, nil, &Failure{Kind: FailError, Detail: err.Error()}
	}
	return res, chk, nil
}

// panicSite walks the recovering stack for the innermost frame outside the
// runtime — the file:line that actually blew up.
func panicSite() string {
	pc := make([]uintptr, 32)
	n := runtime.Callers(3, pc)
	frames := runtime.CallersFrames(pc[:n])
	for {
		f, more := frames.Next()
		if f.File != "" && !strings.Contains(f.File, "runtime/") {
			return fmt.Sprintf("%s:%d", trimPath(f.File), f.Line)
		}
		if !more {
			return "unknown"
		}
	}
}

// trimPath keeps the path from the module root down, so panic sites are
// stable across build environments.
func trimPath(file string) string {
	if i := strings.Index(file, "hibernator/"); i >= 0 {
		return file[i+len("hibernator/"):]
	}
	return file
}

// violationDetail renders up to three violations on one line.
func violationDetail(chk *invariant.Checker) string {
	vs := chk.Violations()
	n := len(vs)
	if n > 3 {
		vs = vs[:3]
	}
	parts := make([]string, 0, len(vs)+1)
	for _, v := range vs {
		parts = append(parts, v.String())
	}
	if total := chk.Count(); total > len(vs) {
		parts = append(parts, fmt.Sprintf("(+%d more)", total-len(vs)))
	}
	return strings.Join(parts, " | ")
}

// RunsPerExecute is the number of simulation runs one Execute call costs:
// armed, armed repeat, unarmed — plus a restored run when the
// kill-and-restore oracle is armed.
func (s *Scenario) RunsPerExecute() int {
	n := 3
	if s.SnapshotT > 0 {
		n++
	}
	return n
}

// Execute judges one scenario against all oracles, in deterministic order:
//
//  1. an armed run must neither error, panic, nor violate any invariant;
//  2. repeating the armed run must reproduce its fingerprint exactly;
//  3. an unarmed run must produce the identical fingerprint (the checker
//     observes, it must not perturb);
//  4. for SnapshotT > 0, the unarmed run additionally captures a state
//     snapshot at SnapshotT (riding oracle 3: capture must not perturb),
//     the snapshot must be a write→parse→write fixed point, and a run
//     restored from the parsed snapshot must finish with the identical
//     fingerprint — the kill-and-restore contract behind `hibsim
//     -resume-from`.
//
// A nil return means the scenario passed. Execute is a pure function of
// the scenario — the soak and the shrinker both rely on that.
func Execute(s *Scenario) *Failure {
	if err := s.Validate(); err != nil {
		return &Failure{Kind: FailError, Detail: err.Error()}
	}
	resA, chkA, fail := s.runOnce(true)
	if fail != nil {
		return fail
	}
	if !chkA.Ok() {
		return &Failure{Kind: FailInvariant, Detail: violationDetail(chkA)}
	}
	fpA := fingerprintOf(resA)

	resB, chkB, fail := s.runOnce(true)
	if fail != nil {
		return &Failure{Kind: FailRepeat, Detail: "rerun failed where first run passed: " + fail.Error()}
	}
	if !chkB.Ok() {
		return &Failure{Kind: FailRepeat, Detail: "rerun violated invariants the first run kept: " + violationDetail(chkB)}
	}
	if fpB := fingerprintOf(resB); fpA != fpB {
		return &Failure{Kind: FailRepeat, Detail: fpA.diff(fpB)}
	}

	// The unarmed run doubles as the snapshot-capture run when the
	// kill-and-restore oracle is armed; capture is a pure read, so the
	// armed/unarmed comparison below also proves capture changed nothing.
	var snapAtT *snapshot.State
	var capture func(*sim.Config)
	if s.SnapshotT > 0 {
		capture = func(cfg *sim.Config) {
			cfg.SnapshotEvery = s.SnapshotT
			cfg.SnapshotSink = func(st *snapshot.State) error {
				if snapAtT == nil {
					snapAtT = st
				}
				return nil
			}
		}
	}
	resC, _, fail := s.runWith(false, capture)
	if fail != nil {
		return &Failure{Kind: FailArmed, Detail: "unarmed run failed where armed passed: " + fail.Error()}
	}
	fpC := fingerprintOf(resC)
	if fpA != fpC {
		return &Failure{Kind: FailArmed, Detail: fpA.diff(fpC)}
	}

	if s.SnapshotT > 0 {
		if snapAtT == nil {
			return &Failure{Kind: FailRestore, Detail: fmt.Sprintf("no snapshot captured at t=%g", s.SnapshotT)}
		}
		raw := snapAtT.Bytes()
		reparsed, err := snapshot.Parse(bytes.NewReader(raw))
		if err != nil {
			return &Failure{Kind: FailRestore, Detail: "snapshot does not parse back: " + err.Error()}
		}
		if !bytes.Equal(raw, reparsed.Bytes()) {
			return &Failure{Kind: FailRestore, Detail: "snapshot is not a write/parse fixed point"}
		}
		resE, _, fail := s.runWith(false, func(cfg *sim.Config) { cfg.ResumeFrom = reparsed })
		if fail != nil {
			return &Failure{Kind: FailRestore, Detail: "restored run failed where straight-through passed: " + fail.Error()}
		}
		if fpE := fingerprintOf(resE); fpC != fpE {
			return &Failure{Kind: FailRestore, Detail: fmt.Sprintf("restored from t=%g: %s", s.SnapshotT, fpC.diff(fpE))}
		}
	}

	return nil
}
