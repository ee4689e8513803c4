// Package aws assembles the simulated AWS deployment used by the
// benchmarks: a Lambda service, a Step Functions service on top of it,
// and an S3-like object store for data too large for service payloads.
package aws

import (
	"statebench/internal/aws/lambda"
	"statebench/internal/aws/sfn"
	"statebench/internal/cloud/blob"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Cloud is one simulated AWS region/account.
type Cloud struct {
	Params platform.AWSParams
	Lambda *lambda.Service
	SFN    *sfn.Service
	S3     *blob.Store
}

// New builds a Cloud with the given calibration parameters; every
// service reads its instrumentation through hooks.
func New(k *sim.Kernel, params platform.AWSParams, hooks *instr.Hooks) *Cloud {
	lsvc := lambda.New(k, params, hooks)
	return &Cloud{
		Params: params,
		Lambda: lsvc,
		SFN:    sfn.New(k, params, lsvc),
		S3:     blob.New(k, "s3", blob.DefaultParams()),
	}
}

// ResetMeters zeroes billing meters and storage stats across services,
// keeping deployed functions and warm containers.
func (c *Cloud) ResetMeters() {
	c.Lambda.ResetMeters()
	c.SFN.ResetMeters()
	c.S3.ResetStats()
}

// Usage reports cumulative billable consumption (the core.Backend
// seam). AWS bills Step transitions whether or not the style is
// stateful — a stateless deployment simply produces none.
func (c *Cloud) Usage(stateful bool) pricing.Usage {
	m := c.Lambda.TotalMeter()
	return pricing.Usage{
		GBs:          m.BilledGBs,
		Requests:     m.Invocations,
		StatefulTxns: c.SFN.TotalTransitions,
		AllTxns:      c.SFN.TotalTransitions,
		BlobTxns:     c.S3.Stats().Transactions(),
		Exec:         m.ExecTime,
	}
}

// Stop implements core.Backend; the AWS services run no background
// listeners, so there is nothing to halt.
func (c *Cloud) Stop() {}
