package httpx

import (
	"errors"
	"testing"
)

// TestUnmarshalStrict: trailing whitespace (what json.Encoder and most
// clients append) is accepted; anything else after the first value,
// and unknown fields, are 400 bad_request.
func TestUnmarshalStrict(t *testing.T) {
	type spec struct {
		A int `json:"a"`
	}
	for body, ok := range map[string]bool{
		`{"a":1}`:          true,
		"{\"a\":1}\n \t\r": true,
		`{"a":1} x`:        false,
		`{"a":1}{"a":2}`:   false,
		`{"a":1}}`:         false,
		`{"a":1}[`:         false,
		`{"b":1}`:          false,
		`{"a":`:            false,
		``:                 false,
	} {
		var dst spec
		err := Unmarshal([]byte(body), &dst)
		if ok {
			if err != nil || dst.A != 1 {
				t.Errorf("%q: got %+v, %v; want a=1", body, dst, err)
			}
			continue
		}
		var he *Error
		if !errors.As(err, &he) || he.Status != 400 || he.Code != "bad_request" {
			t.Errorf("%q: err = %v, want 400 bad_request", body, err)
		}
	}
}
