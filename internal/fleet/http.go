package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/eoml/eoml/internal/compute"
)

// The fleet wire protocol extends the compute fabric with membership:
//
//	POST /fleet/register   {"id","url","capacity"} -> {"heartbeat_seconds"}
//	POST /fleet/heartbeat  {"id"} -> 200, or 404 when the worker was
//	                       evicted and must re-register
//	POST /fleet/deregister {"id"} -> 200
//	GET  /fleet/workers    -> {"workers": [...]}
//
// Task execution itself rides the compute protocol served by each
// worker's own endpoint: one POST /submit per lease, then GET
// /tasks/{id} until the task settles.

type registerRequest struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Capacity int    `json:"capacity"`
}

type registerResponse struct {
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
}

type heartbeatRequest struct {
	ID string `json:"id"`
}

type workersResponse struct {
	Workers []WorkerStatus `json:"workers"`
}

// Handler exposes the coordinator's membership API. Mount it at
// /fleet/ on the control-plane mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !decodePost(w, r, &req) {
			return
		}
		if err := c.Register(req.ID, req.URL, req.Capacity); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, registerResponse{HeartbeatSeconds: (c.cfg.HeartbeatTimeout / 3).Seconds()})
	})
	mux.HandleFunc("/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodePost(w, r, &req) {
			return
		}
		if !c.Heartbeat(req.ID) {
			http.Error(w, fmt.Sprintf("fleet: unknown worker %q, re-register", req.ID), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/fleet/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodePost(w, r, &req) {
			return
		}
		c.Deregister(req.ID)
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/fleet/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, workersResponse{Workers: c.Workers()})
	})
	return mux
}

func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection gone; nothing to recover.
		return
	}
}

// Client is a worker's view of the coordinator's membership API.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient builds a membership client for a control-plane base URL
// (the /fleet/ prefix is appended per call).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: http.DefaultClient}
}

// Register announces the worker; the returned duration is the
// coordinator's requested heartbeat cadence.
func (cl *Client) Register(ctx context.Context, id, url string, capacity int) (time.Duration, error) {
	var resp registerResponse
	if err := cl.post(ctx, "/fleet/register", registerRequest{ID: id, URL: url, Capacity: capacity}, &resp); err != nil {
		return 0, err
	}
	return time.Duration(resp.HeartbeatSeconds * float64(time.Second)), nil
}

// ErrUnknownWorker reports a heartbeat for an evicted worker.
type ErrUnknownWorker struct{ ID string }

func (e *ErrUnknownWorker) Error() string {
	return fmt.Sprintf("fleet: unknown worker %q, re-register", e.ID)
}

// Heartbeat refreshes liveness; an *ErrUnknownWorker error means the
// coordinator evicted this worker and it must re-register.
func (cl *Client) Heartbeat(ctx context.Context, id string) error {
	err := cl.post(ctx, "/fleet/heartbeat", heartbeatRequest{ID: id}, nil)
	var status *statusError
	if errors.As(err, &status) && status.code == http.StatusNotFound {
		return &ErrUnknownWorker{ID: id}
	}
	return err
}

// Deregister removes the worker gracefully.
func (cl *Client) Deregister(ctx context.Context, id string) error {
	return cl.post(ctx, "/fleet/deregister", heartbeatRequest{ID: id}, nil)
}

// Workers lists the coordinator's live worker set.
func (cl *Client) Workers(ctx context.Context) ([]WorkerStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+"/fleet/workers", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("fleet: workers: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var wr workersResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return nil, err
	}
	return wr.Workers, nil
}

// statusError is a non-200 answer from the coordinator. It carries the
// status code so callers match on the response, never on error text (a
// refused connection to port 14046 also says "404").
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func (cl *Client) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &statusError{
			code: resp.StatusCode,
			msg:  fmt.Sprintf("fleet: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg))),
		}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// HTTPTransport runs fleet tasks over the compute fabric's HTTP
// protocol: submit to the worker's endpoint, poll the future until it
// resolves. Task-function failures surface as *TaskError; everything
// else (connection refused, drain rejection, poll failure) is a
// transport error the coordinator requeues.
type HTTPTransport struct {
	// PollInterval is the future poll cadence; 0 means 5ms.
	PollInterval time.Duration
	// HTTP overrides the client; nil means http.DefaultClient.
	HTTP *http.Client
}

// NewHTTPTransport returns a transport with default polling.
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{PollInterval: 5 * time.Millisecond}
}

// Run implements Transport.
func (t *HTTPTransport) Run(ctx context.Context, workerURL, function string, args map[string]any) (any, error) {
	remote := compute.NewRemoteEndpoint(workerURL)
	if t.HTTP != nil {
		remote.HTTP = t.HTTP
	}
	if t.PollInterval > 0 {
		remote.PollInterval = t.PollInterval
	}
	fut, err := remote.Submit(ctx, function, args)
	if err != nil {
		return nil, err // transport failure (includes ErrDraining): requeue-able
	}
	interval := remote.PollInterval
	for {
		tr, err := fut.Poll(ctx)
		if err != nil {
			return nil, err // transport failure mid-flight: requeue-able
		}
		switch tr.State {
		case compute.Completed:
			return tr.Result, nil
		case compute.Errored:
			return nil, &TaskError{Msg: tr.Error}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}
