package core

import (
	"fmt"

	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// A BatchItem is one view update inside a multi-view batch.
type BatchItem struct {
	// View receives the request.
	View view.View
	// Request is the single-tuple update.
	Request Request
	// Policy chooses among the item's candidates (nil = Simplest).
	Policy Policy
}

// TranslateBatch translates a set of view updates whose views read
// pairwise-disjoint base relations (the §5-3 lemma's condition: "each
// underlying relation is referenced in only one of the views") and
// returns the union translation together with the per-item choices.
// The lemma guarantees the union collectively satisfies the five
// criteria when each part does.
func TranslateBatch(db storage.Source, items []BatchItem) (*update.Translation, []Candidate, error) {
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("core: empty batch")
	}
	owner := map[string]int{}
	for i, it := range items {
		if it.View == nil {
			return nil, nil, fmt.Errorf("core: batch item %d has no view", i)
		}
		for _, sp := range relationsOf(it.View) {
			rel := sp.Base().Name()
			if j, clash := owner[rel]; clash && j != i {
				return nil, nil, fmt.Errorf("core: batch items %d and %d both touch relation %s (the composition lemma requires disjoint relations)", j, i, rel)
			}
			owner[rel] = i
		}
	}
	union := update.NewTranslation()
	chosen := make([]Candidate, len(items))
	for i, it := range items {
		cands, err := Enumerate(db, it.View, it.Request)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch item %d: %w", i, err)
		}
		c, err := orDefault(it.Policy).Choose(it.Request, cands)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch item %d: %w", i, err)
		}
		chosen[i] = c
		union.AddAll(c.Translation)
	}
	return union, chosen, nil
}

// ApplyBatch translates the batch and applies the union atomically:
// either every view changes as requested or nothing changes.
func ApplyBatch(db *storage.Database, items []BatchItem) ([]Candidate, error) {
	union, chosen, err := TranslateBatch(db, items)
	if err != nil {
		return nil, err
	}
	if err := db.Apply(union); err != nil {
		return nil, fmt.Errorf("core: applying batch %s: %w", union, err)
	}
	return chosen, nil
}
