package segment

import (
	"errors"
	"sort"
)

// joinErrs collapses a worker error list into one error.
func joinErrs(errs []error) error { return errors.Join(errs...) }

// OrderByHeat returns item indices in descending weight order (ties by
// ascending index, so the order is deterministic). Feeding a shared
// work-stealing queue — engine.RunParallel's atomic counter — in this order
// approximates the longest-processing-time schedule: the heaviest automata
// start first and the light tail levels the workers out.
func OrderByHeat(weight []int64) []int {
	order := make([]int, len(weight))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight[order[a]] > weight[order[b]]
	})
	return order
}
