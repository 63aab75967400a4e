package stats

import "testing"

func TestKFold(t *testing.T) {
	folds, err := KFold(10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("%d folds, want 3", len(folds))
	}
	seen := map[int]int{}
	for _, fold := range folds {
		for _, i := range fold {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Errorf("%d distinct indices, want 10", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d appears %d times", i, c)
		}
	}
	// Balanced: sizes 4,3,3 in some order.
	sizes := []int{len(folds[0]), len(folds[1]), len(folds[2])}
	total := sizes[0] + sizes[1] + sizes[2]
	if total != 10 {
		t.Errorf("fold sizes %v", sizes)
	}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Errorf("unbalanced folds %v", sizes)
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	if _, err := KFold(5, 1, 1); err == nil {
		t.Error("k=1 must fail")
	}
	if _, err := KFold(2, 3, 1); err == nil {
		t.Error("more folds than items must fail")
	}
}

func TestKFoldDeterministic(t *testing.T) {
	a, _ := KFold(20, 4, 7)
	b, _ := KFold(20, 4, 7)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("non-deterministic folds")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("non-deterministic folds")
			}
		}
	}
}
