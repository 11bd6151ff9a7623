package httpx

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/metrics"
)

// statusRecorder captures the status code and body size a handler
// writes, for the request log and the route/code counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards streaming support so SSE handlers can push events
// through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusLabels caches the decimal form of every HTTP status so
// counting a request allocates nothing.
var statusLabels = func() (t [600]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

func statusLabel(code int) string {
	if code >= 0 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

// Middleware instruments every route: the in-flight gauge, completed
// requests by route and status code, latency by route, and one
// structured log line per request.
type Middleware struct {
	InFlight  *metrics.Gauge
	Requests  *metrics.CounterVec // labels: route, code
	Durations *metrics.Histogram  // label: route
	Logger    *slog.Logger
}

// Handle registers h on mux under pattern ("METHOD /path"); the path
// is the route's metric label.
func (m *Middleware) Handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	route := pattern[strings.IndexByte(pattern, ' ')+1:]
	mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.InFlight.Add(1)
		defer m.InFlight.Add(-1)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)

		elapsed := time.Since(start)
		m.Requests.Inc(route, statusLabel(rec.status))
		m.Durations.Observe(elapsed.Seconds(), route)
		m.Logger.Info("request",
			"method", r.Method,
			"route", route,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", elapsed,
			"remote", r.RemoteAddr,
		)
	}))
}

// Base registers the routes every node answers locally: /healthz,
// /metrics over reg, and the catalog routes /v1/networks and
// /v1/designs from the linked model zoo and design table. A draining
// node's /healthz answers 503 "draining" so routers stop sending it
// new work; the body still carries the status word for probers that
// want to tell "shutting down" from "gone".
func (m *Middleware) Base(mux *http.ServeMux, draining *atomic.Bool, reg *metrics.Registry) {
	m.Handle(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			WriteJSON(w, http.StatusServiceUnavailable, api.HealthResponse{Status: "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"})
	})
	m.Handle(mux, "GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	m.Handle(mux, "GET /v1/networks", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.NetworksResponse{Networks: pixel.Networks()})
	})
	m.Handle(mux, "GET /v1/designs", func(w http.ResponseWriter, r *http.Request) {
		names := make([]string, 0, 3)
		for _, d := range pixel.Designs() {
			names = append(names, d.String())
		}
		WriteJSON(w, http.StatusOK, api.DesignsResponse{Designs: names})
	})
}

// Lifecycle is the serve-and-drain loop both binaries share.
type Lifecycle struct {
	Handler http.Handler
	Logger  *slog.Logger
	// Draining flips when the drain begins; /healthz reads it.
	Draining *atomic.Bool
	// Shutdown runs once the HTTP drain has finished, to release what
	// in-flight requests were still using.
	Shutdown func()
}

// Serve runs l.Handler on ln until ctx is cancelled, then drains
// in-flight requests for at most drain before forcing connections
// closed, and runs l.Shutdown. It returns once shutdown completes (nil
// on a clean drain).
func (l Lifecycle) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	hs := &http.Server{
		Handler:           l.Handler,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(l.Logger.Handler(), slog.LevelWarn),
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		l.Draining.Store(true)
		l.Logger.Info("shutting down", "drain", drain)
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr <- hs.Shutdown(dctx)
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	err := <-shutdownErr
	l.Shutdown()
	return err
}
