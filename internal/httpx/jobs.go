package httpx

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pixel/api"
	"pixel/internal/jobs"
	"pixel/internal/metrics"
)

// Jobs serves the durable-job routes over one registry:
//
//	POST   /v1/jobs              submit a robustness or sweep job
//	GET    /v1/jobs/{id}         status + partial results
//	GET    /v1/jobs/{id}/events  server-sent event stream
//	DELETE /v1/jobs/{id}         cancel / forget
type Jobs struct {
	// Registry runs the jobs; nil answers every route with 501.
	Registry *jobs.Registry
	// Heartbeat is the SSE keep-alive comment cadence.
	Heartbeat time.Duration
	Errors    Errors
	// Created counts admitted jobs; nil counts nothing.
	Created *metrics.Counter
}

// Register adds the job routes to mux through m.
func (j *Jobs) Register(mux *http.ServeMux, m *Middleware) {
	m.Handle(mux, "POST /v1/jobs", j.create)
	m.Handle(mux, "GET /v1/jobs/{id}", j.get)
	m.Handle(mux, "DELETE /v1/jobs/{id}", j.delete)
	m.Handle(mux, "GET /v1/jobs/{id}/events", j.events)
}

// disabled writes the 501 of a node without a registry.
func (j *Jobs) disabled(w http.ResponseWriter) bool {
	if j.Registry != nil {
		return false
	}
	j.Errors.Write(w, NotImplemented("durable jobs are not enabled on this server"))
	return true
}

func (j *Jobs) create(w http.ResponseWriter, r *http.Request) {
	if j.disabled(w) {
		return
	}
	var req api.JobRequest
	if err := DecodeJSON(w, r, &req); err != nil {
		j.Errors.Write(w, err)
		return
	}
	var spec any
	switch req.Kind {
	case api.JobKindRobustness:
		if req.Robustness == nil {
			j.Errors.Write(w, BadRequestf("kind %q requires a robustness spec", req.Kind))
			return
		}
		spec = req.Robustness
	case api.JobKindSweep:
		if req.Sweep == nil {
			j.Errors.Write(w, BadRequestf("kind %q requires a sweep spec", req.Kind))
			return
		}
		spec = req.Sweep
	default:
		j.Errors.Write(w, BadRequestf("unknown job kind %q (have %q, %q)", req.Kind, api.JobKindRobustness, api.JobKindSweep))
		return
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		j.Errors.Write(w, fmt.Errorf("encode job spec: %w", err))
		return
	}
	job, err := j.Registry.Create(req.Kind, buf)
	if err != nil {
		j.Errors.Write(w, err)
		return
	}
	if j.Created != nil {
		j.Created.Add(1)
	}
	st := j.Registry.Snapshot(job)
	WriteJSON(w, http.StatusAccepted, api.JobHandle{ID: job.ID, Kind: job.Kind, State: string(st.State)})
}

// lookup resolves {id}; on failure it writes the error and returns nil.
func (j *Jobs) lookup(w http.ResponseWriter, r *http.Request) *jobs.Job {
	if j.disabled(w) {
		return nil
	}
	job, err := j.Registry.Get(r.PathValue("id"))
	if err != nil {
		j.Errors.Write(w, err)
		return nil
	}
	return job
}

func (j *Jobs) get(w http.ResponseWriter, r *http.Request) {
	job := j.lookup(w, r)
	if job == nil {
		return
	}
	st := j.Registry.Snapshot(job)
	resp := api.JobStatusResponse{
		ID:          st.ID,
		Kind:        st.Kind,
		State:       string(st.State),
		Done:        st.Done,
		Total:       st.Total,
		CreatedUnix: st.CreatedUnix,
		Adopted:     st.Adopted,
		Error:       st.Error,
		Result:      json.RawMessage(st.Result),
	}
	if st.Partial != nil {
		if buf, err := json.Marshal(st.Partial); err == nil {
			resp.Partial = buf
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (j *Jobs) delete(w http.ResponseWriter, r *http.Request) {
	if j.disabled(w) {
		return
	}
	if err := j.Registry.Delete(r.PathValue("id")); err != nil {
		j.Errors.Write(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// events streams the job's event log as server-sent events via
// jobs.StreamEvents: replay from Last-Event-ID, comment heartbeats,
// stream closes after the terminal event.
func (j *Jobs) events(w http.ResponseWriter, r *http.Request) {
	job := j.lookup(w, r)
	if job == nil {
		return
	}
	err := j.Registry.StreamEvents(w, r, job, j.Heartbeat, func(st jobs.JobStatus) any {
		return api.JobProgress{Done: st.Done, Total: st.Total, Error: st.Error}
	})
	if err != nil {
		j.Errors.Write(w, err)
	}
}
