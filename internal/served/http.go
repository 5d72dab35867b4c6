package served

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxSubmission bounds a POST /jobs body; repro scenarios are a few
// hundred bytes, so 1 MiB is generous without inviting memory abuse.
const maxSubmission = 1 << 20

// JobStatus is the wire form of one job's state.
type JobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Scenario string          `json:"scenario"`
	Events   uint64          `json:"events"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// JobList is the GET /jobs envelope.
type JobList struct {
	Jobs  []JobStatus `json:"jobs"`
	Stats Stats       `json:"stats"`
}

// Handler returns the server's HTTP API:
//
//	POST /jobs                submit a repro scenario (?dry-run=1 to validate only)
//	GET  /jobs                list jobs + admission stats
//	GET  /jobs/{id}           one job's status (410 after flush)
//	GET  /jobs/{id}/stream    live metrics, chunked JSONL
//	GET  /jobs/{id}/trace     live decision trace, chunked JSONL
//	GET  /jobs/{id}/events    live metrics as Server-Sent Events
//	POST /jobs/{id}/suspend   stop a running job, keeping its snapshot
//	POST /jobs/{id}/resume    restore a suspended job
//	POST /jobs/{id}/retry     re-run a failed or canceled job from scratch
//	POST /jobs/{id}/cancel    stop a job for good
//	GET  /healthz             liveness: 200 once the process serves at all
//	GET  /readyz              readiness: 200 once crash recovery has drained
//
// POST /jobs honors two optional headers: X-Client names the submitting
// client for per-client quotas, and X-Job-Key makes the submission
// idempotent — re-POSTing the same (client, key) returns the existing
// job with 200 instead of admitting a duplicate, which is how clients
// survive a server crash between their POST and its response.
//
// Admission refusals answer 429 (capacity or quota, named in the body)
// or 503 (recovery shedding) with a Retry-After header — the explicit
// backpressure clients are expected to honor.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stream", s.streamHandler(func(j *job) *stream { return j.metricsStream() }, "application/jsonl"))
	mux.HandleFunc("GET /jobs/{id}/trace", s.streamHandler(func(j *job) *stream { return j.traceStream() }, "application/jsonl"))
	mux.HandleFunc("GET /jobs/{id}/events", s.handleSSE)
	mux.HandleFunc("POST /jobs/{id}/suspend", s.handleSuspend)
	mux.HandleFunc("POST /jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("POST /jobs/{id}/retry", s.handleRetry)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	return mux
}

func (j *job) metricsStream() *stream {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.metrics
}

func (j *job) traceStream() *stream {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// status snapshots the job's wire form. Serving a terminal state marks
// the job delivered, which makes it first in line for flush eviction;
// the mark is logged so the eviction preference survives a restart.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.delivered && can(byRead, j.state) {
		apply(j, j.entry(walDelivered, ""))
	}
	shape := ""
	if j.scenario != nil { // recovered terminal job with a lost artifact
		shape = j.scenario.String()
	}
	return JobStatus{
		ID:       j.id,
		State:    j.state,
		Scenario: shape,
		Events:   j.progress.Load(),
		Result:   json.RawMessage(j.result),
		Error:    j.errMsg,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// ceilSeconds converts a wait hint to the whole seconds a Retry-After
// header carries, rounding up so a sub-second hint never becomes
// "retry immediately" (Retry-After: 0).
func ceilSeconds(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + time.Second - 1) / time.Second)
}

// writeRetry answers an admission refusal: Retry-After plus a body
// naming the reason, so clients can tell whole-server capacity (back
// off and retry) from their own quota (slow down) from recovery
// shedding (wait for readiness).
func writeRetry(w http.ResponseWriter, code int, wait time.Duration, reason, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(wait)))
	writeJSON(w, code, map[string]string{"error": msg, "reason": reason})
}

func (s *Server) writeBusy(w http.ResponseWriter) {
	writeRetry(w, http.StatusTooManyRequests, s.opts.RetryAfter, "capacity", "server at capacity, retry later")
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubmission+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(body) > maxSubmission {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "submission exceeds 1 MiB"})
		return
	}
	sc, err := parseSubmission(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if r.URL.Query().Get("dry-run") == "1" {
		canonical, err := canonicalRepro(sc)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"scenario":  sc.String(),
			"canonical": canonical,
		})
		return
	}
	client, key := r.Header.Get("X-Client"), r.Header.Get("X-Job-Key")
	id, existing, err := s.SubmitKeyed(sc, client, key)
	wait, isQuota := IsQuota(err)
	switch {
	case err == nil && existing:
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": s.stateOf(id)})
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": StateAccepted})
	case IsBusy(err):
		s.writeBusy(w)
	case isQuota:
		writeRetry(w, http.StatusTooManyRequests, wait, "quota", err.Error())
	case IsRecovering(err):
		writeRetry(w, http.StatusServiceUnavailable, s.opts.RetryAfter, "recovering", err.Error())
	case err == errClosed:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}

// stateOf names a deduplicated job's current state for the 200 body;
// the job may have been flushed since the key was recorded.
func (s *Server) stateOf(id string) string {
	j, flushed := s.lookup(id)
	switch {
	case j != nil:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.state
	case flushed:
		return StateFlushed
	default:
		return "unknown"
	}
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 once crash recovery's replay backlog
// has drained (trivially true for a fresh or non-durable server), 503
// while submissions are still being shed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeRetry(w, http.StatusServiceUnavailable, s.opts.RetryAfter, "recovering",
		fmt.Sprintf("replaying %d recovered jobs", s.pending.Load()))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := JobList{Jobs: make([]JobStatus, 0, len(s.order)), Stats: s.stats}
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	for _, j := range jobs {
		list.Jobs = append(list.Jobs, j.status())
	}
	writeJSON(w, http.StatusOK, list)
}

// findJob resolves {id}, writing the error response itself when the job
// is flushed or unknown.
func (s *Server) findJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	j, flushed := s.lookup(id)
	if j != nil {
		return j
	}
	if flushed {
		writeJSON(w, http.StatusGone, map[string]string{"id": id, "state": StateFlushed})
	} else {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job " + id})
	}
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.findJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// streamHandler serves one of the job's live byte streams as a chunked
// response: bytes are flushed as the simulation produces them, and the
// response ends when the stream closes (job finished, suspended, or
// canceled) or the client goes away.
func (s *Server) streamHandler(pick func(*job) *stream, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.findJob(w, r)
		if j == nil {
			return
		}
		st := pick(j)
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		off := 0
		for {
			chunk, ok := st.next(off, r.Context().Done())
			if !ok {
				return
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			off += len(chunk)
		}
	}
}

// handleSSE serves the metrics stream as Server-Sent Events: each JSONL
// row becomes one `data:` event (payload identical to the stream
// endpoint's line), and a final `event: end` marks completion.
func (s *Server) handleSSE(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	st := j.metricsStream()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	off := 0
	var pending []byte
	for {
		chunk, ok := st.next(off, r.Context().Done())
		if !ok {
			fmt.Fprintf(w, "event: end\ndata: %s\n\n", j.status().State)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		off += len(chunk)
		pending = append(pending, chunk...)
		for {
			nl := bytes.IndexByte(pending, '\n')
			if nl < 0 {
				break
			}
			fmt.Fprintf(w, "data: %s\n\n", pending[:nl])
			pending = pending[nl+1:]
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	done, was := j.requestSuspend()
	if done == nil {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": "job is " + was + ", not running", "state": was,
		})
		return
	}
	<-done
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	switch err := s.resume(j); {
	case err == nil:
		writeJSON(w, http.StatusOK, j.status())
	case IsBusy(err):
		s.writeBusy(w)
	default:
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	}
}

func (s *Server) handleRetry(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	switch err := s.retryJob(j); {
	case err == nil:
		writeJSON(w, http.StatusOK, j.status())
	case IsBusy(err):
		s.writeBusy(w)
	default:
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	j.waitIdle()
	writeJSON(w, http.StatusOK, j.status())
}
