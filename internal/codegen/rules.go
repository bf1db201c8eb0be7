// Package codegen implements DNNFusion's fusion code generation (§4.4):
// it turns fusion blocks into kernels by building a data-flow tree (DFT),
// eliminating common subtrees, applying the per-mapping-type code
// generation rules, folding interior data-movement operators into index
// arithmetic (intra-block optimization, Figure 5), selecting the block
// layout by dominant operator (inter-block optimization), and emitting
// C-like (mobile CPU) and OpenCL-like (mobile GPU) kernel source. Kernels
// are cached structurally, so an operator generated once is reused for the
// current and future models.
package codegen

import (
	"fmt"

	"dnnfusion/internal/fusion"
	"dnnfusion/internal/ops"
)

// Backend selects the emission target.
type Backend int

const (
	CPU Backend = iota // C-like source, loop nests, NEON-style hints
	GPU                // OpenCL-like source, one work-item per output element
)

func (b Backend) String() string {
	if b == GPU {
		return "GPU"
	}
	return "CPU"
}

// Strategy names how a pair of operators is stitched together during DFT
// traversal; one strategy instance per green/yellow cell of Table 3 and per
// backend gives the paper's 23 rules for each of CPU and GPU.
type Strategy string

const (
	// ScalarCompose: both operators become one scalar expression
	// (One-to-One chains).
	ScalarCompose Strategy = "scalar-compose"
	// IndexFold: the data-movement operator disappears into the index
	// computation of its consumer/producer (Reorganize/Shuffle cases).
	IndexFold Strategy = "index-fold"
	// Epilogue: the second operator post-processes each element the
	// first (Many-to-Many) operator produces (Conv+ReLU).
	Epilogue Strategy = "epilogue"
	// PrologueLoad: the first operator is evaluated on demand inside the
	// second operator's loads (Add feeding GEMM, Expand feeding Add).
	PrologueLoad Strategy = "prologue-load"
	// ReplicatedStore: a One-to-Many second operator fans each produced
	// element out to several destinations (Conv+Expand, profiled case).
	ReplicatedStore Strategy = "replicated-store"
	// ChainStream fuses two ManyToMany contractions (a Table 3 red pair)
	// by streaming the producer's row tiles straight into the consumer —
	// the contraction-chain exception executed by the consumer contraction
	// pulling the producer's tree, an attention chain's softmax included,
	// into its A window.
	ChainStream Strategy = "chain-stream"
)

// GenRule is one code-generation rule: how to fuse a (first, second)
// mapping-type pair on a backend.
type GenRule struct {
	First, Second ops.MappingType
	Decision      fusion.Decision
	Strategy      Strategy
	// Note documents the backend-specific consideration.
	Note string
}

// RulesFor returns the backend's code-generation rule table: exactly one
// rule per non-red cell of Table 3 (23 rules).
func RulesFor(b Backend) []GenRule {
	var rules []GenRule
	for _, first := range ops.AllMappingTypes() {
		for _, second := range ops.AllMappingTypes() {
			_, d := fusion.Combine(first, second)
			if d == fusion.FuseBreak {
				continue
			}
			rules = append(rules, GenRule{
				First:    first,
				Second:   second,
				Decision: d,
				Strategy: strategyFor(first, second),
				Note:     noteFor(b, first, second),
			})
		}
	}
	return rules
}

func strategyFor(first, second ops.MappingType) Strategy {
	switch {
	case first == ops.OneToOne && second == ops.OneToOne:
		return ScalarCompose
	case second == ops.ManyToMany:
		// The heavy op pulls its operands through the first op's loads.
		return PrologueLoad
	case first == ops.ManyToMany && second == ops.OneToMany:
		return ReplicatedStore
	case first == ops.ManyToMany:
		return Epilogue
	case first == ops.Reorganize || first == ops.Shuffle ||
		second == ops.Reorganize || second == ops.Shuffle:
		return IndexFold
	case second == ops.OneToMany || first == ops.OneToMany:
		return PrologueLoad
	default:
		return ScalarCompose
	}
}

func noteFor(b Backend, first, second ops.MappingType) string {
	if b == GPU {
		return fmt.Sprintf("one work-item per output element; %v→%v stitched in-register", first, second)
	}
	return fmt.Sprintf("fused loop nest; %v→%v stitched without materialization", first, second)
}

// lookupRule finds the rule for a pair; ok is false for red cells, which
// the planner never emits but codegen still guards against.
func lookupRule(b Backend, first, second ops.MappingType) (GenRule, bool) {
	_, d := fusion.Combine(first, second)
	if d == fusion.FuseBreak {
		return GenRule{}, false
	}
	return GenRule{First: first, Second: second, Decision: d,
		Strategy: strategyFor(first, second), Note: noteFor(b, first, second)}, true
}
