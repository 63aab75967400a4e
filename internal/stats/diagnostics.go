package stats

import (
	"errors"
	"fmt"
	"math/rand"
)

// KFold produces k disjoint index folds over n items, shuffled with the
// seed. Every index appears in exactly one fold; fold sizes differ by at
// most one. It errors when k is out of range.
func KFold(n, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, errors.New("stats: k-fold needs k ≥ 2")
	}
	if k > n {
		return nil, fmt.Errorf("stats: cannot split %d items into %d folds", n, k)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([][]int, k)
	for i, j := range idx {
		folds[i%k] = append(folds[i%k], j)
	}
	return folds, nil
}
