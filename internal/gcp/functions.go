// Package gcp assembles the third simulated provider: Cloud Functions
// (gen 1) with per-request instance scaling, a Workflows-style
// code-first orchestrator on top of them, and a GCS-like object store.
// GCP is not part of the paper's measurement — it exists to prove the
// provider-registry seam: the package registers itself with core from
// init and is never imported by core, pricing, or the experiment
// drivers' paper figures.
package gcp

import (
	"fmt"
	"slices"

	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// NewFunctions creates a Cloud Functions service on the shared
// per-request function service (platform.FaaS): GCP's calibration, the
// "gcf" span/error prefix and chaos component, the "gcp/functions" RNG
// stream, and gen 1's memory rule — one of the fixed tiers.
func NewFunctions(k *sim.Kernel, params platform.GCPParams, hooks *instr.Hooks) *platform.FaaS {
	tiers := params.MemoryTiersMB
	return platform.NewFaaS(k, "gcf", "gcp/functions", params.PerRequestParams, func(memMB int) error {
		if !slices.Contains(tiers, memMB) {
			return fmt.Errorf("memory %d MB is not a configurable tier %v", memMB, tiers)
		}
		return nil
	}, hooks)
}
