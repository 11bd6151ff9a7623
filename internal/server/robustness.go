package server

import (
	"context"
	"fmt"
	"net/http"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
)

// maxSigmaPoints bounds the σ axis of one robustness request; together
// with the trial cap it bounds the total inference count a single
// caller can queue.
const maxSigmaPoints = 256

func (s *Server) handleRobustness(w http.ResponseWriter, r *http.Request) {
	if s.robust == nil {
		s.errs.Write(w, httpx.NotImplemented("robustness sweeps are not enabled on this server"))
		return
	}
	var req api.RobustnessRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		s.errs.Write(w, err)
		return
	}
	d, err := pixel.ParseDesign(req.Design)
	if err != nil {
		s.errs.Write(w, err)
		return
	}
	if req.Trials > s.maxTrials {
		s.errs.Write(w, httpx.BadRequestf("trials %d exceeds the %d-trial limit", req.Trials, s.maxTrials))
		return
	}
	if len(req.Sigmas) > maxSigmaPoints {
		s.errs.Write(w, httpx.BadRequestf("sigma axis of %d points exceeds the %d-point limit", len(req.Sigmas), maxSigmaPoints))
		return
	}
	spec := pixel.RobustnessSpec{
		Network:     req.Network,
		Design:      d,
		Sigmas:      req.Sigmas,
		Trials:      req.Trials,
		Seed:        req.Seed,
		ErrorBudget: req.ErrorBudget,
		Protection:  req.Protection,
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
	defer cancel()

	// The report is a pure function of the spec (Workers excluded), so
	// identical concurrent requests can share one engine run. A
	// protection spec extends the key: differently protected runs must
	// not coalesce.
	key := fmt.Sprintf("%s|%s|%v|%d|%d|%v", req.Network, d, req.Sigmas, req.Trials, req.Seed, req.ErrorBudget)
	if p := req.Protection; p != nil {
		key += fmt.Sprintf("|%s:%d:%d:%d", p.Scheme, p.Copies, p.Retries, p.RecalEvery)
	}
	rep, shared, err := s.robustFlights.Do(ctx, key, func(ctx context.Context) (pixel.RobustnessReport, error) {
		if err := s.limiter.acquire(ctx); err != nil {
			return pixel.RobustnessReport{}, err
		}
		defer s.limiter.release()
		return s.robust.RobustnessContext(ctx, spec)
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.errs.Write(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, rep)
}
