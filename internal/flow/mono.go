package flow

import (
	"statebench/internal/cloud/blob"
	"statebench/internal/core"
)

// MonoLowerer lowers the Mono class — the whole workflow as one
// function — for one provider. The monolith is the same on every
// provider except for the fields below, so AWS-Lambda, Az-Func and
// GCP-Func are three values of this one type.
type MonoLowerer struct {
	Style        core.Impl
	ProviderName string
	// MaxTaskSeconds is the function execution ceiling. A monolith
	// passes state through blobs, so no payload cap applies.
	MaxTaskSeconds float64
	// Store resolves the provider's object store on env.
	Store func(env *core.Env) *blob.Store
	// Register installs the monolith's one task node and returns the
	// runner that invokes it.
	Register func(env *core.Env, st *Stages, n *Node) (core.Runner, error)
	// Line renders the node as the one-line Program (no newline).
	Line func(n *Node) string
}

func (l MonoLowerer) Impl() core.Impl                { return l.Style }
func (MonoLowerer) Class() Class                     { return Mono }
func (MonoLowerer) Variant() string                  { return "" }
func (l MonoLowerer) Caps() Caps                     { return Caps{MaxTaskSeconds: l.MaxTaskSeconds} }
func (l MonoLowerer) Provider() string               { return l.ProviderName }
func (l MonoLowerer) Blob(env *core.Env) *blob.Store { return l.Store(env) }

func (l MonoLowerer) Lower(env *core.Env, _ *Definition, g *Graph, st *Stages) (core.Runner, error) {
	return l.Register(env, st, g.Node(g.Start))
}

func (l MonoLowerer) Program(def *Definition) (string, error) {
	g := def.Graphs[Mono]
	return l.Line(g.Node(g.Start)) + "\n", nil
}
