// Package azure assembles the simulated Azure deployment used by the
// benchmarks: a consumption-plan function app, a durable task hub with
// client, blob storage, and factory helpers for manually managed
// storage queues (the Az-Queue implementation style).
package azure

import (
	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/cloud/blob"
	"statebench/internal/cloud/queue"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Cloud is one simulated Azure subscription/region.
type Cloud struct {
	Params platform.AzureParams
	Host   *functions.Host
	Hub    *durable.Hub
	Client *durable.Client
	Blob   *blob.Store

	k *sim.Kernel
	// ManualQueues tracks queues created with NewQueue so their
	// transactions can be summed into the stateful bill.
	ManualQueues []*queue.Queue
}

// New builds a Cloud with the given calibration parameters; every
// service, including queues created later with NewQueue, reads its
// instrumentation through hooks.
func New(k *sim.Kernel, params platform.AzureParams, hooks *instr.Hooks) *Cloud {
	host := functions.NewHost(k, "app", params, hooks)
	hub := durable.NewHub(k, host, "hub")
	return &Cloud{
		Params: params,
		Host:   host,
		Hub:    hub,
		Client: durable.NewClient(hub),
		Blob:   blob.New(k, "azblob", blob.DefaultParams()),
		k:      k,
	}
}

// NewQueue creates a manually managed storage queue (Az-Queue style)
// whose transactions are tracked for billing.
func (c *Cloud) NewQueue(name string) *queue.Queue {
	qp := queue.DefaultParams()
	qp.MaxPayload = c.Params.QueuePayloadLimit
	q := queue.New(c.k, name, qp, c.Host.Hooks())
	c.ManualQueues = append(c.ManualQueues, q)
	return q
}

// StorageTransactions sums billable storage transactions across the
// task hub and all manual queues.
func (c *Cloud) StorageTransactions() int64 {
	return c.Hub.StorageTransactions() + c.ManualQueueTransactions()
}

// ManualQueueTransactions sums transactions of manually managed queues
// only (what a deployment without the durable extension is billed for).
func (c *Cloud) ManualQueueTransactions() int64 {
	var total int64
	for _, q := range c.ManualQueues {
		total += q.Stats().Transactions()
	}
	return total
}

// ResetMeters zeroes compute meters and storage transaction counters.
func (c *Cloud) ResetMeters() {
	c.Host.ResetMeters()
	c.Hub.ResetStorageStats()
	for _, q := range c.ManualQueues {
		q.ResetStats()
	}
	c.Blob.ResetStats()
}

// Stop terminates listeners and the scale controller so a finished
// simulation's kernel can drain.
func (c *Cloud) Stop() { c.Host.Stop() }

// Usage reports cumulative billable consumption (the core.Backend
// seam). Deployments without the durable extension are billed only for
// their manually managed queues, not the task hub's storage traffic;
// AllTxns always carries the full transaction count for the paper's
// transactions-per-run metric.
func (c *Cloud) Usage(stateful bool) pricing.Usage {
	m := c.Host.TotalMeter()
	txns := c.StorageTransactions()
	statefulTxns := txns
	if !stateful {
		statefulTxns = c.ManualQueueTransactions()
	}
	return pricing.Usage{
		GBs:          m.BilledGBs,
		Requests:     m.Invocations,
		StatefulTxns: statefulTxns,
		AllTxns:      txns,
		BlobTxns:     c.Blob.Stats().Transactions(),
		Exec:         m.ExecTime,
	}
}
