package tuner

import (
	"cmp"
	"slices"
	"sort"

	"dnnfusion/internal/ops"
)

// Schedule selection for the real heavy kernels, as opposed to the
// abstract (TileM, TileN, TileK) surface TuneGA searches for Figure 9b.
// The executable kernels never tile K — every output element accumulates
// the full contraction in ascending order so results stay bit-exact with
// the scalar oracle — so a schedule is exactly the two parameters the
// blocked paths implement: register row-tile height and L1 column-panel
// width. That space is 4 × 7 = 28 points (4 × 7 × 7 for a chain's shared
// row tile and two panels), so it is ranked exhaustively: selection is a
// pure function of (task, device) with no seed to carry, which is the
// determinism the profile-database cache and repeat compilations rely on.
// The fitness surface prices the full-K working set against the device's
// cache hierarchy (Device.CacheBytes), B-row reuse against the tile
// height, and A re-streaming against the panel count, so taller inputs
// (batch-stacked matmuls) select taller row tiles and narrower panels than
// their batch-1 shapes.

// rowTileChoices are the register-tile heights the blocked kernels
// implement as specialized loops (ops.Schedule.RowTile).
var rowTileChoices = []int{1, 2, 4, 8}

// colPanelChoices span thin L1 panels to full-width single passes.
var colPanelChoices = []int{8, 16, 32, 64, 128, 256, 512}

// ScheduleResult is one ranked schedule.
type ScheduleResult struct {
	Schedule ops.Schedule
	Score    float64
}

// ScheduleFitness scores a tile schedule for a heavy kernel task in
// (0, 1]. Deterministic, so selection results are reproducible.
func ScheduleFitness(t Task, s ops.Schedule) float64 {
	if s.RowTile < 1 || s.ColPanel < 1 {
		return 0
	}
	// Working set of one pass with the full contraction resident: the
	// row-tile strip of A, the K×panel slab of B, and the output tile.
	ws := float64(s.RowTile*t.K+t.K*s.ColPanel+s.RowTile*s.ColPanel) * t.Device.BytesPerElem
	l1, l2 := t.Device.CacheBytes()
	cache := cacheScore(ws, l1, l2)
	// B rows are loaded and widened once per row tile: reuse grows with
	// tile height, saturating as the loads amortize away.
	reuseScore := 1 - 0.45/float64(s.RowTile)
	// Every column panel re-streams the A strip: more passes, more A
	// traffic.
	passes := (t.N + s.ColPanel - 1) / s.ColPanel
	passScore := 1 / (1 + 0.08*float64(passes-1))
	// Remainder loops hurt, exactly as in the abstract surface.
	divScore := rem(t.M, s.RowTile) * rem(t.N, s.ColPanel)
	return cache * reuseScore * passScore * divScore
}

// rankSchedules returns every distinct schedule for the task, normalized
// the way the kernels will (ops.Schedule.Normalize), best fitness first.
// Ties break toward the smaller row tile, then the smaller panel, so the
// order is canonical.
func rankSchedules(t Task) []ScheduleResult {
	all := make([]ScheduleResult, 0, len(rowTileChoices)*len(colPanelChoices))
	for _, rt := range rowTileChoices {
		for _, cp := range colPanelChoices {
			s := ops.Schedule{RowTile: rt, ColPanel: cp}.Normalize(t.M, t.N)
			if slices.ContainsFunc(all, func(r ScheduleResult) bool { return r.Schedule == s }) {
				continue
			}
			all = append(all, ScheduleResult{Schedule: s, Score: ScheduleFitness(t, s)})
		}
	}
	slices.SortFunc(all, func(a, b ScheduleResult) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score),
			cmp.Compare(a.Schedule.RowTile, b.Schedule.RowTile),
			cmp.Compare(a.Schedule.ColPanel, b.Schedule.ColPanel))
	})
	return all
}

// Select returns the best schedule for one heavy kernel task. The second
// parameter is ignored: it is what remains of the genetic search this
// selector replaced, kept only because the benchmark module compiles
// against this signature.
func Select(t Task, _ GAOptions) ScheduleResult { return rankSchedules(t)[0] }

// ChainScheduleResult is one ranked schedule pair of a fused contraction
// chain.
type ChainScheduleResult struct {
	// Producer tiles the chain's first contraction (its ColPanel doubles
	// as the online softmax's key-panel width); Consumer tiles the second.
	Producer ops.Schedule
	Consumer ops.Schedule
	Score    float64
}

// rankChainSchedules ranks the schedule pairs of a fused contraction chain
// like rankSchedules. The row tile is shared — the chain kernel pulls
// producer rows in exactly the consumer's row groups, so mismatched
// heights would re-tile at the seam — while each contraction gets its own
// column panel; a pair scores the product of its two fitnesses.
func rankChainSchedules(prod, cons Task) []ChainScheduleResult {
	type pair struct{ p, c ops.Schedule }
	seen := map[pair]bool{}
	var all []ChainScheduleResult
	for _, rt := range rowTileChoices {
		for _, pcp := range colPanelChoices {
			ps := ops.Schedule{RowTile: rt, ColPanel: pcp}.Normalize(prod.M, prod.N)
			pScore := ScheduleFitness(prod, ps)
			for _, ccp := range colPanelChoices {
				cs := ops.Schedule{RowTile: rt, ColPanel: ccp}.Normalize(cons.M, cons.N)
				if seen[pair{ps, cs}] {
					continue
				}
				seen[pair{ps, cs}] = true
				all = append(all, ChainScheduleResult{Producer: ps, Consumer: cs, Score: pScore * ScheduleFitness(cons, cs)})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Producer.RowTile != b.Producer.RowTile {
			return a.Producer.RowTile < b.Producer.RowTile
		}
		if a.Producer.ColPanel != b.Producer.ColPanel {
			return a.Producer.ColPanel < b.Producer.ColPanel
		}
		return a.Consumer.ColPanel < b.Consumer.ColPanel
	})
	return all
}

// SelectChain jointly selects the two tile schedules of a fused
// contraction chain.
func SelectChain(prod, cons Task) ChainScheduleResult { return rankChainSchedules(prod, cons)[0] }
