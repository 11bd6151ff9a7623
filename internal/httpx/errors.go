// Package httpx is the serving core pixeld and the fleet coordinator
// share: the uniform error envelope and its sentinel table, strict
// JSON body decoding, the request middleware, the /v1/jobs routes and
// the serve-and-drain lifecycle. Both binaries call it directly, so a
// coordinator cannot be told from a single node by its failures.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"pixel"
	"pixel/api"
	"pixel/internal/jobs"
	"pixel/internal/metrics"
)

// StatusClientClosedRequest is the nginx-convention status recorded
// when the client hung up before the response was ready; nothing
// reaches the wire, but logs and counters need a code.
const StatusClientClosedRequest = 499

// maxBodyBytes bounds every JSON request body.
const maxBodyBytes = 1 << 20

// Error carries an explicit status and wire code for failures that
// have no engine sentinel: request-shape errors, unconfigured routes,
// overload and drain refusals.
type Error struct {
	Status  int
	Code    string
	Message string
	// RetryAfterS, when > 0, is sent as the Retry-After hint.
	RetryAfterS int
}

func (e *Error) Error() string { return e.Message }

// BadRequestf returns a 400 bad_request Error.
func BadRequestf(format string, args ...any) error {
	return &Error{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

// NotImplemented returns the 501 an unconfigured route answers.
func NotImplemented(msg string) error {
	return &Error{Status: http.StatusNotImplemented, Code: "not_implemented", Message: msg}
}

// errorTable is the single sentinel -> (HTTP status, wire code)
// mapping; first errors.Is match wins. Codes are part of the versioned
// wire contract (api.Error).
var errorTable = []struct {
	is     error
	status int
	code   string
}{
	{jobs.ErrRegistryFull, http.StatusTooManyRequests, "overloaded"},
	{jobs.ErrBadLastEventID, http.StatusBadRequest, "bad_request"},
	{jobs.ErrNoJob, http.StatusNotFound, "not_found"},
	{pixel.ErrUnknownNetwork, http.StatusNotFound, "unknown_network"},
	{pixel.ErrUnknownDesign, http.StatusBadRequest, "unknown_design"},
	{pixel.ErrBadPrecision, http.StatusBadRequest, "bad_precision"},
	{pixel.ErrBadGrid, http.StatusBadRequest, "bad_grid"},
	{pixel.ErrBadSpec, http.StatusBadRequest, "bad_spec"},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
	{context.Canceled, StatusClientClosedRequest, "client_closed_request"},
}

// classify maps err onto its status and wire detail. A worker's HTTP
// error passes through with its original status, code and retry hint,
// then come explicit Errors, then the sentinel table, else 500.
func classify(err error) (int, api.Error) {
	var he *api.HTTPError
	if errors.As(err, &he) {
		return he.Status, api.Error{Code: he.Code, Message: he.Message, RetryAfterS: he.RetryAfterS}
	}
	var le *Error
	if errors.As(err, &le) {
		return le.Status, api.Error{Code: le.Code, Message: le.Message, RetryAfterS: le.RetryAfterS}
	}
	for _, e := range errorTable {
		if errors.Is(err, e.is) {
			return e.status, api.Error{Code: e.code, Message: err.Error()}
		}
	}
	return http.StatusInternalServerError, api.Error{Code: "internal", Message: err.Error()}
}

// Errors renders errors as the uniform api.ErrorEnvelope. The fields
// are what differs between the binaries that share it.
type Errors struct {
	// RetryAfterS is the Retry-After hint on a 429 that carries none.
	RetryAfterS int
	// Shed counts every 429 written; nil counts nothing.
	Shed *metrics.Counter
}

// Write renders err with its status, and a Retry-After header whenever
// the envelope carries a retry hint.
func (e Errors) Write(w http.ResponseWriter, err error) {
	status, detail := classify(err)
	if status == http.StatusTooManyRequests {
		if detail.RetryAfterS == 0 {
			detail.RetryAfterS = e.RetryAfterS
		}
		if e.Shed != nil {
			e.Shed.Add(1)
		}
	}
	if detail.RetryAfterS > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(detail.RetryAfterS))
	}
	WriteJSON(w, status, api.ErrorEnvelope{Error: detail})
}

// WriteJSON writes v with the two-space indent every route uses; merged
// fleet responses are byte-identical to single-node ones, framing
// included.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

// DecodeJSON parses a bounded request body strictly: unknown fields and
// anything after the first JSON value are rejected, so schema typos
// and concatenated bodies fail loudly instead of evaluating defaults.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := decodeStrict(r.Body, dst); err != nil {
		return BadRequestf("bad request body: %v", err)
	}
	return nil
}

// Unmarshal is DecodeJSON for a job spec already in memory: a bad spec
// fails at submission, not at some later re-adoption.
func Unmarshal(spec []byte, dst any) error {
	if err := decodeStrict(bytes.NewReader(spec), dst); err != nil {
		return BadRequestf("bad job spec: %v", err)
	}
	return nil
}

var errTrailingData = errors.New("trailing data after the JSON value")

func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}
