package served

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"

	"hibernator/internal/chaos"
	"hibernator/internal/invariant"
	"hibernator/internal/obs"
	"hibernator/internal/runner"
	"hibernator/internal/scenario"
	"hibernator/internal/sim"
	"hibernator/internal/snapshot"
)

// RenderResult renders a run's canonical result document: the chaos
// fingerprint (the scalars any determinism bug would disturb) as one
// JSON line. Both the server and DirectRun render through this function,
// so "the served result is byte-identical to a direct run" is an exact
// bytes.Equal, not a semantic comparison.
func RenderResult(res *sim.Result) []byte {
	return append(resultJSON(res), '\n')
}

// resultJSON is RenderResult without the framing newline: the detail of
// a complete edge and the result a job serves.
func resultJSON(res *sim.Result) []byte {
	b, err := json.Marshal(chaos.FingerprintOf(res))
	if err != nil {
		// Fingerprint is a flat struct of numbers; Marshal cannot fail.
		panic("served: fingerprint marshal: " + err.Error())
	}
	return b
}

// DirectRun executes the scenario the way the server does — same
// BuildRun materialization, same observability arming, same result
// rendering — without the service machinery. It returns the canonical
// result document plus the complete metrics and trace streams (the
// bytes a client streaming the served job from start to finish
// receives). The load harness compares served jobs against this.
func DirectRun(sc *scenario.Scenario, check bool) (result, metrics, trace []byte, err error) {
	r, err := sc.BuildRun()
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := r.Config
	reg := obs.NewRegistry(0)
	tr := obs.NewTrace()
	cfg.Metrics, cfg.Trace = reg, tr
	var chk *invariant.Checker
	if check {
		chk = invariant.New()
		cfg.Invariants = chk
	}
	res, err := sim.Run(cfg, r.Source, r.Controller, r.Duration)
	if err != nil {
		return nil, nil, nil, err
	}
	if chk != nil && !chk.Ok() {
		return nil, nil, nil, errors.New("invariant violations: " + violationSummary(chk))
	}
	var mb, tb bytes.Buffer
	if err := reg.WriteJSONL(&mb); err != nil {
		return nil, nil, nil, err
	}
	if err := tr.WriteJSONL(&tb); err != nil {
		return nil, nil, nil, err
	}
	return RenderResult(res), mb.Bytes(), tb.Bytes(), nil
}

// armObs wires a fresh registry and trace into cfg and streams every
// retained row/event — rendered by the same functions the file
// exporters use — into the job's stream buffers. The hooks run on the
// simulation goroutine; the streams do the cross-goroutine handoff.
func armObs(cfg *sim.Config, metrics, trace *stream) {
	reg := obs.NewRegistry(0)
	tr := obs.NewTrace()
	cfg.Metrics, cfg.Trace = reg, tr
	var mbuf, tbuf []byte
	reg.SetOnSample(func(row int) {
		mbuf = reg.AppendRowJSONL(mbuf[:0], row)
		metrics.append(mbuf)
	})
	tr.SetOnEmit(func(ev obs.Event) {
		tbuf = obs.AppendEventJSONL(tbuf[:0], ev)
		trace.append(tbuf)
	})
}

// runJob executes one admitted job on a queue worker: build the run,
// arm context/watchdog/progress/observability/snapshots, execute under
// the retry schedule, and record the outcome. It takes every edge out
// of running except a cancel's request and a shutdown, which logs none.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	s.recoveredDoneLocked(j) // the replay backlog shrinks even if canceled
	if j.stopping || !can(byStart, j.state) {
		// Canceled while queued, never admitted, or shutting down.
		j.mu.Unlock()
		return
	}
	j.startAttempt()
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.runDone = make(chan struct{})
	resumeFrom, done := j.resumeFrom, j.runDone
	j.mu.Unlock()
	defer cancel()

	var res *sim.Result
	first := true
	attempt := func(ctx context.Context) error {
		j.mu.Lock()
		if !first {
			// A fresh attempt restarts the streams: the retried run's
			// bytes must stand alone, not continue a failed prefix.
			j.metrics.close()
			j.trace.close()
			j.metrics, j.trace = newStream(), newStream()
			j.startAttempt()
		}
		first = false
		metrics, trace := j.metrics, j.trace
		j.mu.Unlock()

		r, err := j.scenario.BuildRun()
		if err != nil {
			return err
		}
		cfg := r.Config
		cfg.Context = ctx
		cfg.Progress = &j.progress
		if s.opts.Watchdog != nil {
			wd := *s.opts.Watchdog
			cfg.Watchdog = &wd
		}
		var chk *invariant.Checker
		if s.opts.Check {
			chk = invariant.New()
			cfg.Invariants = chk
		}
		armObs(&cfg, metrics, trace)
		// Periodic snapshots back suspend/resume. Capture is a pure
		// read, so arming it changes neither the result nor the stream.
		cfg.SnapshotEvery = r.Duration / float64(s.opts.SnapshotFrac)
		cfg.SnapshotSink = func(st *snapshot.State) error {
			j.mu.Lock()
			j.snap = st
			j.mu.Unlock()
			// Durable too: a crash mid-run restarts from the latest
			// persisted capture instead of from t=0. Best-effort — a
			// failed write costs restart time, never correctness.
			s.wal.saveSnap(j.id, st)
			return nil
		}
		cfg.ResumeFrom = resumeFrom

		out, err := sim.Run(cfg, r.Source, r.Controller, r.Duration)
		if err != nil {
			return err
		}
		if chk != nil && !chk.Ok() {
			return errors.New("invariant violations: " + violationSummary(chk))
		}
		res = out
		return nil
	}
	err := runner.Retry(ctx, s.opts.Attempts, s.opts.Backoff, attempt)

	j.mu.Lock()
	switch {
	case err == nil:
		// The terminal edge carries the canonical result, so a restart
		// serves it without re-running.
		apply(j, j.entry(StateComplete, string(resultJSON(res))))
		s.wal.dropSnap(j.id)
	case j.cancelReq:
		apply(j, j.entry(StateCanceled, err.Error()))
		s.wal.dropSnap(j.id)
	case j.suspendReq && errors.Is(err, context.Canceled):
		j.resumeFrom = j.snap // may be nil: resume then restarts from t=0
		// Snapshot durable first, then the edge records its hash: replay
		// verifies the pair and restarts from scratch on any mismatch.
		s.wal.saveSnap(j.id, j.snap)
		e := j.entry(StateSuspended, "")
		e.SHA256 = snapHash(j.snap)
		apply(j, e)
	case j.stopping:
		// Shutdown: the log keeps the job running, and the next Open
		// resumes or restarts it as after a crash.
	default:
		apply(j, j.entry(StateFailed, err.Error()))
		s.wal.dropSnap(j.id)
	}
	s.quota.release(j.client) // the job left accepted/running either way
	j.metrics.close()
	j.trace.close()
	close(done)
	j.mu.Unlock()
}

// startAttempt takes the running edge of the job's next execution
// attempt, numbered across restarts. Caller holds j.mu.
func (j *job) startAttempt() {
	e := j.entry(StateRunning, "")
	e.Attempt++
	apply(j, e)
}
