package gcp

import (
	"statebench/internal/cloud/blob"
	"statebench/internal/core"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Kind identifies the GCP provider in the core registry. The constant
// lives here, not in core: registering a provider must not require
// editing any core source, and this allocation is the proof.
const Kind core.CloudKind = 2

// The GCP implementation styles. They ride on ExtendedWorkflow's
// ExtraImpls, never on core.AllImpls, so paper output is unaffected.
const (
	// Func is the monolithic stateless Cloud Function style.
	Func core.Impl = "GCP-Func"
	// Wflow is the GCP Workflows orchestration style.
	Wflow core.Impl = "GCP-Wflow"
)

// Cloud is one simulated GCP project/region.
type Cloud struct {
	Params    platform.GCPParams
	Functions *platform.FaaS
	Workflows *Workflows
	GCS       *blob.Store
}

// New builds a Cloud with the given calibration parameters; every
// service reads its instrumentation through hooks.
func New(k *sim.Kernel, params platform.GCPParams, hooks *instr.Hooks) *Cloud {
	fsvc := NewFunctions(k, params, hooks)
	return &Cloud{
		Params:    params,
		Functions: fsvc,
		Workflows: NewWorkflows(k, params, fsvc),
		GCS:       blob.New(k, "gcs", blob.DefaultParams()),
	}
}

// FromEnv returns the Env's GCP backend, constructing it on first use.
// Deployment code uses this the way it uses env.AWS / env.Azure.
func FromEnv(env *core.Env) *Cloud { return env.Backend(Kind).(*Cloud) }

// ResetMeters zeroes billing meters and storage stats across services,
// keeping deployed functions and warm instances.
func (c *Cloud) ResetMeters() {
	c.Functions.ResetMeters()
	c.Workflows.ResetMeters()
	c.GCS.ResetStats()
}

// Usage reports cumulative billable consumption (the core.Backend
// seam). Like AWS, GCP bills workflow steps whether or not the style
// is stateful — a functions-only deployment simply produces none.
func (c *Cloud) Usage(stateful bool) pricing.Usage {
	m := c.Functions.TotalMeter()
	return pricing.Usage{
		GBs:          m.BilledGBs,
		Requests:     m.Invocations,
		StatefulTxns: c.Workflows.TotalSteps,
		AllTxns:      c.Workflows.TotalSteps,
		BlobTxns:     c.GCS.Stats().Transactions(),
		Exec:         m.ExecTime,
	}
}

// Stop implements core.Backend; the GCP services run no background
// listeners, so there is nothing to halt.
func (c *Cloud) Stop() {}

func init() {
	core.RegisterProvider(core.ProviderSpec{
		Kind: Kind,
		Name: "GCP",
		Styles: []core.StyleInfo{
			{Impl: Func, Description: "One stateless Cloud Function."},
			{Impl: Wflow, Stateful: true, Description: "Workflow implemented using GCP Workflows, calling Cloud Functions on each step."},
		},
		NewBackend:         func(e *core.Env) core.Backend { return New(e.K, platform.DefaultGCP(), e.Hooks) },
		DefaultBook:        func() pricing.Book { return pricing.DefaultGCP() },
		Traffic:            func() platform.TrafficProfile { return platform.DefaultGCP().Traffic() },
		BillsConfiguredMem: true,
	})
}
