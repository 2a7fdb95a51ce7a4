package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/densitymountain/edmstream/internal/wal"
)

// Shared HTTP retry/backoff for the drills' clients. The retry contract
// is deliberately narrow: only clean shed responses — 429/503, where
// the server definitively committed nothing — are retried, honoring
// the Retry-After hint when present. Transport errors are returned
// immediately: a lost response leaves the commit ambiguous, and the
// drills' exact acked-points accounting cannot tolerate a blind
// replay that might duplicate a batch.

// shedReply is a parsed 429/503 rejection: the machine-readable
// reason and retry hint the server attaches to every shed.
type shedReply struct {
	Status            int
	Reason            string
	RetryAfterSeconds int
}

// parseShed classifies one response, returning nil for anything that
// is not a shed status. The hint is read from the Retry-After header
// with the JSON body's retry_after_seconds as fallback.
func parseShed(status int, header http.Header, body []byte) *shedReply {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return nil
	}
	s := &shedReply{Status: status}
	if ra, err := strconv.Atoi(header.Get("Retry-After")); err == nil {
		s.RetryAfterSeconds = ra
	}
	var payload struct {
		Reason            string `json:"reason"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if json.Unmarshal(body, &payload) == nil {
		s.Reason = payload.Reason
		if s.RetryAfterSeconds == 0 {
			s.RetryAfterSeconds = payload.RetryAfterSeconds
		}
	}
	return s
}

// doRequest issues one request (a nil body for a GET) and drains the
// response, returning status, headers and body.
func doRequest(client *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, raw, nil
}

// shedRetry is a client's retry budget for shed responses: MaxAttempts
// tries, with the policy's jittered exponential backoff between them.
type shedRetry struct{ wal.RetryPolicy }

// politeRetry is the budget of every drill client that is not
// deliberately overloading the server.
var politeRetry = shedRetry{wal.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second}}

// post POSTs body until a 200.
func (r shedRetry) post(client *http.Client, url string, body []byte) error {
	_, err := r.do(client, http.MethodPost, url, body)
	return err
}

// get GETs url until a 200 and returns the body.
func (r shedRetry) get(client *http.Client, url string) ([]byte, error) {
	return r.do(client, http.MethodGet, url, nil)
}

// do sends the request until a 200, retrying shed responses with the
// backoff (preferring the server's Retry-After hint when it is
// under the cap) and failing on anything else.
func (r shedRetry) do(client *http.Client, method, url string, body []byte) ([]byte, error) {
	var last *shedReply
	for attempt := 0; attempt < r.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := r.Backoff(attempt + 1)
			if hint := time.Duration(last.RetryAfterSeconds) * time.Second; hint > delay && hint <= r.MaxDelay {
				delay = hint
			}
			time.Sleep(delay)
		}
		status, header, raw, err := doRequest(client, method, url, body)
		if err != nil {
			return nil, err
		}
		if status == http.StatusOK {
			return raw, nil
		}
		if last = parseShed(status, header, raw); last == nil {
			return nil, fmt.Errorf("bench: %s %s status %d: %s", method, url, status, raw)
		}
	}
	return nil, fmt.Errorf("bench: %s %s still shed after %d attempts (last: %d %s)", method, url, r.MaxAttempts, last.Status, last.Reason)
}

// waitUntil polls cond every interval until it reports done, the
// condition errors, or the timeout passes.
func waitUntil(timeout, every time.Duration, what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		done, err := cond()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(every)
	}
}
