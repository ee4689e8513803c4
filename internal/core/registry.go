package core

import (
	"fmt"
	"sort"

	"statebench/internal/aws"
	"statebench/internal/azure"
	"statebench/internal/platform"
	"statebench/internal/pricing"
)

// This file is the provider registry: the one place that knows which
// clouds exist. An implementation style (Impl) is registered data — a
// StyleInfo row under a ProviderSpec — not a compile-time enum case,
// so adding a provider means calling RegisterProvider from the new
// package's init, never editing switches in core, pricing,
// experiments, or cmd. The AWS and Azure providers of the paper are
// registered below; internal/gcp registers the third.

// Backend is one provider's simulated cloud inside an Env. The
// concrete types (*aws.Cloud, *azure.Cloud, *gcp.Cloud) satisfy it
// structurally, so provider packages do not import core. A backend's
// services read their instrumentation through the Env's Hooks, handed
// to the backend at construction, so the interface carries no hook
// setters.
type Backend interface {
	// Usage reports cumulative billable consumption. stateful selects
	// the provider's stateful billing mode (e.g. Azure deployments
	// without the durable extension are not billed for task-hub
	// storage traffic).
	Usage(stateful bool) pricing.Usage
	// Stop halts background listeners so a finished kernel can drain.
	Stop()
}

// StyleInfo describes one registered implementation style — the
// registry's replacement for the per-Impl switch statements.
type StyleInfo struct {
	Impl Impl
	// Kind is the provider hosting the style.
	Kind CloudKind
	// Stateful is Table II's "Stateful" column: whether the style uses
	// a platform stateful extension (and is billed for it).
	Stateful bool
	// Description is the Table II description text.
	Description string
}

// ProviderSpec declares one provider: its styles, how to construct its
// simulated cloud inside an Env, and its default price book.
type ProviderSpec struct {
	// Kind is the provider's identity; must be unique.
	Kind CloudKind
	// Name is the display name ("AWS", "Azure", "GCP").
	Name string
	// Styles lists the implementation styles the provider hosts.
	Styles []StyleInfo
	// NewBackend constructs the provider's cloud on the Env's kernel,
	// instrumented through the Env's Hooks. Called lazily on first use.
	NewBackend func(e *Env) Backend
	// DefaultBook returns the provider's price book. The paper's two
	// providers are overridden by the Env's live AWSPrices/AzurePrices
	// fields (which ablations perturb); see Env.BookFor.
	DefaultBook func() pricing.Book
	// BillsConfiguredMem reports whether the provider bills compute by
	// the configured memory tier (AWS Lambda, GCP Cloud Functions) as
	// opposed to consumed memory (Azure consumption plan). Registry
	// data, not program text: the AWS Step Functions ASL omits Lambda
	// memory even though it shapes the bill, so optimizers must ask
	// the provider, not the lowered program, whether a memory knob is
	// cost-relevant.
	BillsConfiguredMem bool
	// Traffic returns the provider's open-loop traffic calibration
	// (see internal/traffic). Optional: providers without a profile
	// simply do not appear in the traffic experiment.
	Traffic func() platform.TrafficProfile
}

var (
	providerRegistry = map[CloudKind]*ProviderSpec{}
	styleRegistry    = map[Impl]StyleInfo{}
	// providerOrder preserves registration order (package-init order),
	// which is deterministic, for stable enumeration.
	providerOrder []CloudKind
)

// RegisterProvider adds a provider to the registry. It panics on a
// duplicate kind or style — registration is package-init-time wiring,
// so a conflict is a programming error.
func RegisterProvider(spec ProviderSpec) {
	if _, dup := providerRegistry[spec.Kind]; dup {
		panic(fmt.Sprintf("core: provider %s registered twice", spec.Name))
	}
	if spec.NewBackend == nil || spec.DefaultBook == nil {
		panic(fmt.Sprintf("core: provider %s needs NewBackend and DefaultBook", spec.Name))
	}
	s := spec
	for i := range s.Styles {
		s.Styles[i].Kind = s.Kind
		impl := s.Styles[i].Impl
		if _, dup := styleRegistry[impl]; dup {
			panic(fmt.Sprintf("core: style %s registered twice", impl))
		}
		styleRegistry[impl] = s.Styles[i]
	}
	providerRegistry[s.Kind] = &s
	providerOrder = append(providerOrder, s.Kind)
}

// Provider returns the registered spec for kind.
func Provider(kind CloudKind) (*ProviderSpec, bool) {
	spec, ok := providerRegistry[kind]
	return spec, ok
}

// Providers lists registered providers in registration order.
func Providers() []*ProviderSpec {
	out := make([]*ProviderSpec, 0, len(providerOrder))
	for _, kind := range providerOrder {
		out = append(out, providerRegistry[kind])
	}
	return out
}

// StyleOf returns the registry row for an implementation style.
func StyleOf(i Impl) (StyleInfo, bool) {
	info, ok := styleRegistry[i]
	return info, ok
}

// RegisteredImpls lists every style of every registered provider, in
// provider registration order. The paper's figures iterate AllImpls
// (the six Table II styles) instead, so third-provider styles never
// leak into paper output.
func RegisteredImpls() []Impl {
	var out []Impl
	for _, kind := range providerOrder {
		for _, st := range providerRegistry[kind].Styles {
			out = append(out, st.Impl)
		}
	}
	return out
}

// sortedBackendKinds returns the kinds of the Env's constructed
// backends in ascending order, for deterministic iteration.
func sortedBackendKinds(backends map[CloudKind]Backend) []CloudKind {
	kinds := make([]CloudKind, 0, len(backends))
	for kind := range backends {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
	return kinds
}

func init() {
	RegisterProvider(ProviderSpec{
		Kind: AWS,
		Name: "AWS",
		Styles: []StyleInfo{
			{Impl: AWSLambda, Description: "One stateless Lambda function."},
			{Impl: AWSStep, Stateful: true, Description: "Workflow implementation using AWS Step Functions, calling AWS Lambda functions on each state."},
		},
		NewBackend:         func(e *Env) Backend { return aws.New(e.K, platform.DefaultAWS(), e.Hooks) },
		DefaultBook:        func() pricing.Book { return pricing.DefaultAWS() },
		Traffic:            func() platform.TrafficProfile { return platform.DefaultAWS().Traffic() },
		BillsConfiguredMem: true,
	})
	RegisterProvider(ProviderSpec{
		Kind: Azure,
		Name: "Azure",
		Styles: []StyleInfo{
			{Impl: AzFunc, Description: "One stateless Azure function."},
			{Impl: AzQueue, Description: "Isolated functions connecting through Azure queues."},
			{Impl: AzDorch, Stateful: true, Description: "Workflow implemented using Azure Durable orchestrators, calling isolated functions through call_activity."},
			{Impl: AzDent, Stateful: true, Description: "Workflow implemented using Azure Durable orchestrators, calling stateful entities through call_entity."},
		},
		NewBackend:  func(e *Env) Backend { return azure.New(e.K, platform.DefaultAzure(), e.Hooks) },
		DefaultBook: func() pricing.Book { return pricing.DefaultAzure() },
		Traffic:     func() platform.TrafficProfile { return platform.DefaultAzure().Traffic() },
	})
}
