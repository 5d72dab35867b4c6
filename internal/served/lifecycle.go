package served

import (
	"fmt"

	"hibernator/internal/journal"
)

// Job states. Terminal states (complete, failed, canceled) may be
// flushed; suspended jobs resume through accepted like a fresh admit.
const (
	StateAccepted  = "accepted"
	StateRunning   = "running"
	StateSuspended = "suspended"
	StateComplete  = "complete"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
	StateFlushed   = "flushed"
)

// stateNew is the state of a job no accepted edge has admitted: a
// submission still being offered to the queue, or, in replay, an ID
// whose admission a rejected edge voided.
const stateNew = ""

// Statuses that are edges but not states, alongside the State*
// constants.
const (
	// walDelivered marks that some client has read the job's terminal
	// status — the flush-eviction preference survives restarts.
	walDelivered = "delivered"
	// walRejected voided an accepted edge whose queue submission was
	// refused. Only old logs hold it: the server now offers a job to the
	// queue before it logs the admission.
	walRejected = "rejected"
	// walRequeue puts a job that was accepted or running at a crash back
	// in the queue at recovery. It is never logged; replay refuses it.
	walRequeue = "requeue"
)

// Who takes an edge. A verb asks the table (can) whether it may act on
// a job's current state, so the verbs and replay share one legality.
const (
	bySubmit  = "submit"
	byResume  = "resume"
	byRetry   = "retry"
	byStart   = "start"   // a worker begins a run
	byAttempt = "attempt" // a worker begins an in-place retry attempt
	bySuspend = "suspend"
	byFinish  = "finish" // a run ends
	byCancel  = "cancel"
	byRead    = "read" // a client reads a terminal status
	byFlush   = "flush"
	byRecover = "recover"
	byOldLog  = "old log" // written by earlier servers only
)

// edgeKey names an edge by the status it is logged as and the state it
// leaves.
type edgeKey struct{ status, from string }

// edgeTo is where an edge leads and what takes it.
type edgeTo struct{ to, by string }

// lifecycle is the job state machine: every edge a job may take, live
// or in replay. apply is the only code that changes a job's state, and
// it refuses an edge this table does not hold before anything reaches
// the log, so the server cannot write a log replay would refuse.
var lifecycle = map[edgeKey]edgeTo{
	{StateAccepted, stateNew}:       {StateAccepted, bySubmit},
	{StateAccepted, StateSuspended}: {StateAccepted, byResume},
	{StateAccepted, StateFailed}:    {StateAccepted, byRetry},
	{StateAccepted, StateCanceled}:  {StateAccepted, byRetry},
	{StateRunning, StateAccepted}:   {StateRunning, byStart},
	{StateRunning, StateRunning}:    {StateRunning, byAttempt},
	{StateSuspended, StateRunning}:  {StateSuspended, bySuspend},
	{StateComplete, StateRunning}:   {StateComplete, byFinish},
	{StateFailed, StateRunning}:     {StateFailed, byFinish},
	// A recovered job whose artifact no longer verifies fails without
	// running. Old logs also hold failed-from-accepted for a refused
	// retry.
	{StateFailed, StateAccepted}:    {StateFailed, byRecover},
	{StateFailed, StateSuspended}:   {StateFailed, byRecover},
	{StateCanceled, StateAccepted}:  {StateCanceled, byCancel},
	{StateCanceled, StateRunning}:   {StateCanceled, byCancel},
	{StateCanceled, StateSuspended}: {StateCanceled, byCancel},
	{walDelivered, StateComplete}:   {StateComplete, byRead},
	{walDelivered, StateFailed}:     {StateFailed, byRead},
	{walDelivered, StateCanceled}:   {StateCanceled, byRead},
	{StateFlushed, StateComplete}:   {StateFlushed, byFlush},
	{StateFlushed, StateFailed}:     {StateFlushed, byFlush},
	{StateFlushed, StateCanceled}:   {StateFlushed, byFlush},
	{walRequeue, StateAccepted}:     {StateAccepted, byRecover},
	{walRequeue, StateRunning}:      {StateAccepted, byRecover},
	// A resume refused by a full backlog, rolled back; a refused
	// submission, voided (only before the job ever ran).
	{StateSuspended, StateAccepted}: {StateSuspended, byOldLog},
	{walRejected, StateAccepted}:    {stateNew, byOldLog},
}

// verbs indexes the table by (verb, state left) for can.
var verbs = func() map[[2]string]bool {
	m := map[[2]string]bool{}
	for k, e := range lifecycle {
		m[[2]string{e.by, k.from}] = true
	}
	return m
}()

// can reports whether the table lets verb act on a job in state st.
func can(verb, st string) bool { return verbs[[2]string{verb, st}] }

// terminalState reports whether a job in this state has finished:
// exactly the states a job may be flushed from.
func terminalState(st string) bool { return can(byFlush, st) }

// apply moves j along the edge e names. It looks the edge up in the
// lifecycle table and refuses it when the table has no such row. A job
// that belongs to a durable server then logs e — fsynced before any
// field changes — and finally takes the state and the fields the entry
// carries. Replay folds logged entries into jobs that belong to no
// server yet, so a replayed edge is never logged twice. The caller holds
// j.mu or owns j outright. Live callers ask can first, so their edges
// are legal; for them only a failed admission returns an error.
func apply(j *job, e journal.Entry) error {
	next, ok := lifecycle[edgeKey{e.Status, j.state}]
	if !ok || (e.Status == walRejected && j.walTries != 0) || (e.Status == walRequeue && j.srv == nil) {
		if j.state == stateNew {
			return fmt.Errorf("served: job %s: %s edge before accepted", j.id, e.Status)
		}
		return fmt.Errorf("served: job %s: %s edge while %s", j.id, e.Status, j.state)
	}
	var w *wal
	if j.srv != nil {
		w = j.srv.wal
	}
	logged := false
	if w != nil && !w.frozen.Load() && e.Status != walRequeue {
		// Every edge but admission is best-effort: the in-memory state
		// is right either way, results are re-derivable by determinism,
		// and a lost edge costs at most one re-run after a crash. An
		// admission the log does not hold would vanish on restart, so it
		// does not happen.
		err := w.j.Append(e)
		if err != nil && j.state == stateNew {
			return err
		}
		logged = err == nil
	}
	switch e.Status {
	case StateAccepted: // a re-admission starts the outcome over
		j.result, j.errMsg, j.delivered = "", "", false
	case StateRunning:
		j.walTries = e.Attempt
	case StateSuspended:
		// A real suspend always states its snapshot hash (empty when no
		// capture existed yet); an old rollback edge with none keeps the
		// hash the suspend recorded.
		if e.SHA256 != "" || j.state == StateRunning {
			j.snapHash = e.SHA256
		}
	case StateComplete:
		j.result = e.Detail
	case StateFailed, StateCanceled:
		j.errMsg = e.Detail
	case walDelivered:
		j.delivered = true
	}
	j.state = next.to
	if logged && w.observe != nil {
		w.observe(e, j)
	}
	return nil
}

// entry builds the log entry for an edge of j with the given status.
func (j *job) entry(status, detail string) journal.Entry {
	return journal.Entry{Run: j.id, Status: status, Attempt: j.walTries, Detail: detail}
}
