package fleet

import (
	"context"
	"net/http"

	"pixel/api"
	"pixel/internal/httpx"
)

// Handler returns the coordinator's routing tree: the same routes with
// the same envelopes as a worker pixeld, so clients point at a
// coordinator with zero changes. Catalog routes (/v1/networks,
// /v1/designs) answer locally — the coordinator links the same model
// zoo and design table as its workers.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mw := &httpx.Middleware{
		InFlight:  c.metrics.inFlight,
		Requests:  c.metrics.requests,
		Durations: c.metrics.durations,
		Logger:    c.logger,
	}
	mw.Base(mux, &c.draining, &c.metrics.reg)
	mw.Handle(mux, "POST /v1/evaluate", c.handleEvaluate)
	mw.Handle(mux, "POST /v1/sweep", c.handleSweep)
	mw.Handle(mux, "POST /v1/map", c.handleMap)
	mw.Handle(mux, "POST /v1/robustness", c.handleRobustness)
	mw.Handle(mux, "POST /v1/infer", c.handleInfer)
	jobRoutes := httpx.Jobs{Registry: c.reg, Heartbeat: c.opts.Heartbeat, Errors: c.errs}
	jobRoutes.Register(mux, mw)
	mw.Handle(mux, "GET /v1/fleet/workers", c.handleWorkersList)
	mw.Handle(mux, "POST /v1/fleet/workers", c.handleWorkerAdd)
	mw.Handle(mux, "DELETE /v1/fleet/workers", c.handleWorkerRemove)
	return mux
}

// errNoHealthyWorkers is the uniform refusal for synchronous fan-out
// when every fleet member is evicted: a 503 with its own wire code (not
// a generic 502 from whichever shard happened to fail first) and a
// Retry-After hint, so clients can tell "fleet temporarily empty" from
// a worker-side failure. Fleet jobs never surface this — they park and
// wait for the prober to revive somebody.
var errNoHealthyWorkers = &httpx.Error{
	Status:      http.StatusServiceUnavailable,
	Code:        "no_healthy_workers",
	Message:     "no healthy workers in the fleet; retry shortly",
	RetryAfterS: 1,
}

// preflight refuses a synchronous fan-out up front when the fleet has
// no healthy member — a uniform 503 no_healthy_workers instead of
// whatever transport error the first doomed shard would produce.
func (c *Coordinator) preflight(w http.ResponseWriter) bool {
	if c.healthyCount() == 0 {
		c.errs.Write(w, errNoHealthyWorkers)
		return false
	}
	return true
}

// requestCtx bounds one synchronous fan-out end to end.
func (c *Coordinator) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), c.opts.RequestTimeout)
}

func (c *Coordinator) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req api.EvaluateRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		c.errs.Write(w, err)
		return
	}
	if !c.preflight(w) {
		return
	}
	ctx, cancel := c.requestCtx(r)
	defer cancel()
	res, err := c.Evaluate(ctx, req)
	if err != nil {
		c.errs.Write(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, res)
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		c.errs.Write(w, err)
		return
	}
	if !c.preflight(w) {
		return
	}
	ctx, cancel := c.requestCtx(r)
	defer cancel()
	resp, err := c.Sweep(ctx, req)
	if err != nil {
		c.errs.Write(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleRobustness(w http.ResponseWriter, r *http.Request) {
	var req api.RobustnessRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		c.errs.Write(w, err)
		return
	}
	if !c.preflight(w) {
		return
	}
	ctx, cancel := c.requestCtx(r)
	defer cancel()
	resp, err := c.Robustness(ctx, req)
	if err != nil {
		c.errs.Write(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleMap(w http.ResponseWriter, r *http.Request) {
	var req api.MapRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		c.errs.Write(w, err)
		return
	}
	if !c.preflight(w) {
		return
	}
	ctx, cancel := c.requestCtx(r)
	defer cancel()
	resp, err := c.Map(ctx, req)
	if err != nil {
		c.errs.Write(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req api.InferRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		c.errs.Write(w, err)
		return
	}
	if !c.preflight(w) {
		return
	}
	ctx, cancel := c.requestCtx(r)
	defer cancel()
	resp, err := c.Infer(ctx, req)
	if err != nil {
		c.errs.Write(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}
