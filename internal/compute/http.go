package compute

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
)

// The HTTP transport lets a workflow submit functions to an endpoint on
// another machine, as Globus Compute does through its cloud service. The
// wire protocol is deliberately small:
//
//	POST /submit     {"function": "...", "args": {...}} -> {"task_id": "..."}
//	GET  /tasks/{id} -> {"task_id", "state", "result"?, "error"?}
//	GET  /status     -> {"endpoint", "active_workers", "functions": [...]}
//
// A task is one submit and a poll loop. The endpoint forgets a task once
// GET /tasks/{id} has answered with its settled state, so a result is
// delivered once and a long-lived endpoint holds only unfinished tasks;
// a later poll of that ID gets 404.

type submitRequest struct {
	Function string         `json:"function"`
	Args     map[string]any `json:"args"`
}

type submitResponse struct {
	TaskID string `json:"task_id"`
}

type taskResponse struct {
	TaskID string    `json:"task_id"`
	State  TaskState `json:"state"`
	Result any       `json:"result,omitempty"`
	Error  string    `json:"error,omitempty"`
}

type statusResponse struct {
	Endpoint      string   `json:"endpoint"`
	ActiveWorkers int      `json:"active_workers"`
	Functions     []string `json:"functions"`
}

// Handler exposes the endpoint over HTTP.
func (e *Endpoint) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var req submitRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fut, err := e.Submit(req.Function, req.Args)
		if err != nil {
			// A draining endpoint is a retryable condition, not a bad
			// request: 503 tells remote submitters (the fleet coordinator)
			// to resubmit the task elsewhere.
			if errors.Is(err, ErrDraining) {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, submitResponse{TaskID: fut.ID})
	})
	mux.HandleFunc("/tasks/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/tasks/")
		fut, err := e.Future(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		resp := taskResponse{TaskID: fut.ID, State: fut.State()}
		if resp.State == Completed || resp.State == Errored {
			result, err := fut.Get(r.Context())
			if err != nil {
				resp.Error = err.Error()
			} else {
				resp.Result = result
			}
			// This answer delivers the outcome; holding the task any longer
			// would keep every result the endpoint ever produced.
			e.forget(id)
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, statusResponse{
			Endpoint:      e.ID,
			ActiveWorkers: e.ActiveWorkers(),
			Functions:     e.reg.Names(),
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection gone; nothing to recover.
		return
	}
}

// RemoteEndpoint submits tasks to an Endpoint served over HTTP.
type RemoteEndpoint struct {
	BaseURL string
	HTTP    *http.Client
	// PollInterval is how often Get polls the task state.
	PollInterval time.Duration
}

// NewRemoteEndpoint builds a client for an endpoint URL.
func NewRemoteEndpoint(baseURL string) *RemoteEndpoint {
	return &RemoteEndpoint{BaseURL: baseURL, HTTP: http.DefaultClient, PollInterval: 10 * time.Millisecond}
}

// RemoteFuture is a handle to a task on a remote endpoint.
type RemoteFuture struct {
	TaskID string
	ep     *RemoteEndpoint
}

// Submit sends a task and returns a pollable handle.
func (r *RemoteEndpoint) Submit(ctx context.Context, function string, args map[string]any) (*RemoteFuture, error) {
	body, err := json.Marshal(submitRequest{Function: function, Args: args})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.BaseURL+"/submit", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The wire inverse of the handler's ErrDraining mapping, so
			// errors.Is works across the HTTP hop.
			return nil, fmt.Errorf("compute: submit: %s: %w", strings.TrimSpace(string(msg)), ErrDraining)
		}
		return nil, fmt.Errorf("compute: submit: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return &RemoteFuture{TaskID: sr.TaskID, ep: r}, nil
}

// Poll fetches the task state once.
func (f *RemoteFuture) Poll(ctx context.Context) (taskResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.ep.BaseURL+"/tasks/"+f.TaskID, nil)
	if err != nil {
		return taskResponse{}, err
	}
	resp, err := f.ep.HTTP.Do(req)
	if err != nil {
		return taskResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return taskResponse{}, fmt.Errorf("compute: poll %s: %s", f.TaskID, resp.Status)
	}
	var tr taskResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return taskResponse{}, err
	}
	return tr, nil
}

// Get polls until the remote task completes, the context is cancelled, or
// the endpoint reports an error.
func (f *RemoteFuture) Get(ctx context.Context) (any, error) {
	interval := f.ep.PollInterval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	for {
		tr, err := f.Poll(ctx)
		if err != nil {
			return nil, err
		}
		switch tr.State {
		case Completed:
			return tr.Result, nil
		case Errored:
			return nil, fmt.Errorf("compute: remote task %s: %s", f.TaskID, tr.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// Status fetches endpoint health.
func (r *RemoteEndpoint) Status(ctx context.Context) (endpoint string, activeWorkers int, functions []string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.BaseURL+"/status", nil)
	if err != nil {
		return "", 0, nil, err
	}
	resp, err := r.HTTP.Do(req)
	if err != nil {
		return "", 0, nil, err
	}
	defer resp.Body.Close()
	var sr statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", 0, nil, err
	}
	return sr.Endpoint, sr.ActiveWorkers, sr.Functions, nil
}
