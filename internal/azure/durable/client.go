package durable

import (
	"encoding/json"
	"fmt"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// Status is an orchestration lifecycle state, matching the states the
// paper's latency methodology observes ('Pending' → 'Running' →
// 'Completed'/'Failed').
type Status string

// Orchestration statuses.
const (
	StatusPending   Status = "Pending"
	StatusRunning   Status = "Running"
	StatusCompleted Status = "Completed"
	StatusFailed    Status = "Failed"
)

// Handle tracks one orchestration instance from the client's view.
type Handle struct {
	ID string
	// CreatedAt is when the client scheduled the orchestration.
	CreatedAt sim.Time
	// RunningAt is when the first episode began (Pending → Running).
	RunningAt sim.Time
	// CompletedAt is when the orchestration finished.
	CompletedAt sim.Time

	status Status
	output []byte
	err    error
	done   *sim.Future[[]byte]
}

func newHandle(h *Hub, id string, created sim.Time) *Handle {
	return &Handle{ID: id, CreatedAt: created, status: StatusPending, done: sim.NewFuture[[]byte](h.k)}
}

// Status returns the current lifecycle state.
func (hd *Handle) Status() Status { return hd.status }

// markRunning transitions Pending → Running (idempotent).
func (hd *Handle) markRunning(now sim.Time) {
	if hd.status == StatusPending {
		hd.status = StatusRunning
		hd.RunningAt = now
	}
}

// complete finishes the orchestration.
func (hd *Handle) complete(now sim.Time, out []byte, err error) {
	hd.CompletedAt = now
	hd.output = out
	hd.err = err
	if err != nil {
		hd.status = StatusFailed
	} else {
		hd.status = StatusCompleted
	}
	hd.done.Complete(out, err)
}

// Wait blocks until the orchestration completes and returns its output.
func (hd *Handle) Wait(p *sim.Proc) ([]byte, error) { return hd.done.Await(p) }

// ColdStart returns the Pending→Running delay — the paper's durable
// cold-start metric.
func (hd *Handle) ColdStart() time.Duration { return hd.RunningAt - hd.CreatedAt }

// E2E returns the Running→Completed latency — the paper's end-to-end
// metric for durable workflows.
func (hd *Handle) E2E() time.Duration { return hd.CompletedAt - hd.RunningAt }

// Total returns the client-observed Pending→Completed time.
func (hd *Handle) Total() time.Duration { return hd.CompletedAt - hd.CreatedAt }

// starterFunction is the HTTP-triggered client function that schedules
// orchestrations (a real, billed function execution, as in Azure).
const starterFunction = "__DurableStarter"

// EnsureStarter registers the HTTP starter function; NewClient calls it.
func (h *Hub) ensureStarter() {
	if _, ok := h.host.Function(starterFunction); ok {
		return
	}
	h.host.MustRegister(functions.Config{
		Name:          starterFunction,
		ConsumedMemMB: 128,
		Handler: func(fctx *functions.Context, payload []byte) ([]byte, error) {
			var m message
			if err := json.Unmarshal(payload, &m); err != nil {
				return nil, err
			}
			if err := h.sendFromProc(fctx.Proc(), m); err != nil {
				return nil, err
			}
			return []byte(m.Instance), nil
		},
	})
}

// Client schedules orchestrations and signals entities from outside the
// task hub (the HTTP-trigger path of the paper's deployments).
type Client struct {
	hub *Hub
}

// NewClient returns a client bound to hub.
func NewClient(hub *Hub) *Client {
	hub.ensureStarter()
	return &Client{hub: hub}
}

// StartOrchestration schedules orchestrator name with input and returns
// a handle. The call models the HTTP trigger: front-end RTT, a billed
// starter-function execution, and an ExecutionStarted control message.
func (c *Client) StartOrchestration(p *sim.Proc, name string, input []byte) (*Handle, error) {
	h := c.hub
	if _, ok := h.orchestrators[name]; !ok {
		return nil, fmt.Errorf("durable: no such orchestrator %q", name)
	}
	if limit := h.params.DurablePayloadLimit; limit > 0 && len(input) > limit {
		return nil, &PayloadTooLargeError{What: "orchestration input", Size: len(input), Limit: limit}
	}
	id := h.newInstanceID(name)
	st := &orchState{id: id, name: name, handle: newHandle(h, id, p.Now())}
	st.orchSpan = h.hooks.Tracer.Start(p.Now(), span.KindOrchestration, "durable/"+name, p.TraceCtx)
	st.tctx = st.orchSpan.Context()
	h.orchs[id] = st

	body, err := json.Marshal(stamped(message{Kind: kindExecutionStarted, Instance: id, Input: input}, st.tctx))
	if err != nil {
		return nil, err
	}
	res, err := h.host.InvokeHTTP(p, starterFunction, body)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, res.Err
	}
	return st.handle, nil
}

// Run starts an orchestration and waits for completion, returning its
// output and handle.
func (c *Client) Run(p *sim.Proc, name string, input []byte) ([]byte, *Handle, error) {
	hd, err := c.StartOrchestration(p, name, input)
	if err != nil {
		return nil, nil, err
	}
	out, err := hd.Wait(p)
	return out, hd, err
}

// RaiseEvent delivers a named external event to a running
// orchestration (matched with WaitForExternalEvent by name, buffered if
// the orchestration is not waiting yet).
func (c *Client) RaiseEvent(p *sim.Proc, instanceID, name string, payload []byte) error {
	h := c.hub
	if limit := h.params.DurablePayloadLimit; limit > 0 && len(payload) > limit {
		return &PayloadTooLargeError{What: "external event " + name, Size: len(payload), Limit: limit}
	}
	if _, ok := h.orchs[instanceID]; !ok {
		return fmt.Errorf("durable: no such instance %q", instanceID)
	}
	return h.sendFromProc(p, message{Kind: kindEventRaised, Instance: instanceID, Name: name, Input: payload})
}

// SignalEntity sends a one-way operation to an entity from the client.
func (c *Client) SignalEntity(p *sim.Proc, e EntityID, op string, input []byte) error {
	h := c.hub
	if limit := h.params.DurablePayloadLimit; limit > 0 && len(input) > limit {
		return &PayloadTooLargeError{What: "entity signal", Size: len(input), Limit: limit}
	}
	return h.sendFromProc(p, message{Kind: kindEntityOp, Instance: e.instanceID(), Op: op, Input: input, Signal: true})
}

// ReadEntityState calls the built-in "get"-style read: it routes a
// two-way operation through a transient orchestration-free response
// path. For simplicity and determinism the client reads the persisted
// state directly with a billed table read, mirroring the status-query
// API cost.
func (c *Client) ReadEntityState(p *sim.Proc, e EntityID) ([]byte, bool) {
	return c.hub.store.QueryEntityState(p, e.instanceID())
}

// Handle returns the handle for an instance ID, if known.
func (c *Client) Handle(id string) (*Handle, bool) {
	st, ok := c.hub.orchs[id]
	if !ok {
		return nil, false
	}
	return st.handle, true
}
