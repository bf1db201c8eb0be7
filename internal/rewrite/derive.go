package rewrite

// DefaultRules assembles the full rule set in the paper's categories. Each
// Rule is a generic matcher; Rule.Forms enumerates the concrete derived
// equation instances it covers, which is what Table 4 prints and counts
// (the paper derives 45/38/66 rules per category with a comparable scheme).
func DefaultRules() []*Rule {
	return []*Rule{
		// Associative.
		ruleMulDupFactor(),
		ruleMulSqrtPair(),
		ruleMulAbsPair(),
		ruleMulRecipPair(),
		ruleMulConstFold(),
		// Distributive.
		ruleAddFactorCommon(),
		ruleLinearOpCommon(),
		ruleSquareMinusFactor(),
		// Commutative.
		ruleReduceHomogeneousCommute(),
		ruleReduceProdExp(),
		ruleTransposeSink(),
		ruleTransposeIntoMatMul(),
		// Simplification (strength reduction / data movement).
		ruleInversePairs(),
		ruleReorganizeCompose(),
		ruleTransposeCompose(),
		ruleIdentityElim(),
		ruleAddDup(),
		// Folding.
		ruleConstFold(),
		ruleConvAffineFold(),
	}
}

// NewDefaultEngine returns an engine loaded with DefaultRules.
func NewDefaultEngine() *Engine { return NewEngine(DefaultRules()) }

// RuleCensus tallies matcher and derived-form counts by category, printed by
// the Table 4 harness.
type RuleCensus struct {
	Category Category
	Matchers int
	Forms    int
}

// Census summarizes a rule set by category.
func Census(rules []*Rule) []RuleCensus {
	idx := map[Category]*RuleCensus{}
	order := []Category{Associative, Distributive, Commutative, Simplification, Folding}
	for _, cat := range order {
		idx[cat] = &RuleCensus{Category: cat}
	}
	for _, r := range rules {
		c := idx[r.Cat]
		c.Matchers++
		c.Forms += len(r.Forms)
	}
	out := make([]RuleCensus, 0, len(order))
	for _, cat := range order {
		out = append(out, *idx[cat])
	}
	return out
}
