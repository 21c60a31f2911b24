package model_test

import (
	"testing"

	"setconsensus/internal/enum"
	"setconsensus/internal/model"
)

// TestCanonicalSpaceMatchesReference checks the sorted-slice pattern
// against the map it replaced on every canonical failure pattern of
// space:n=4,t=3,r=2, one adversary per pattern.
func TestCanonicalSpaceMatchesReference(t *testing.T) {
	s := enum.Space{N: 4, T: 3, MaxRound: 2, Values: []model.Value{0}}
	n := 0
	for _, adv := range s.All() {
		model.CheckAgainstReference(t, adv.Pattern)
		n++
	}
	if n != s.Count() {
		t.Fatalf("walked %d patterns of %d", n, s.Count())
	}
}
