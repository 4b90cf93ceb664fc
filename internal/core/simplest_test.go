package core_test

import (
	"testing"

	"viewupdate/internal/bruteforce"
	"viewupdate/internal/core"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
	"viewupdate/internal/workload"
)

// checkMinimalAcceptable translates r under the default policy and
// diffs the pick against the exhaustive oracle: the pick must be an
// acceptable translation no acceptable translation is strictly simpler
// than, and a rejection must mean the oracle found none either.
func checkMinimalAcceptable(t *testing.T, db *storage.Database, v view.View, r core.Request, cfg bruteforce.Config) {
	t.Helper()
	oracle, err := bruteforce.Search(db, v, r, cfg)
	if err != nil {
		t.Fatalf("oracle %s: %v", r, err)
	}
	pick, err := core.NewTranslator(v, nil).Translate(db, r)
	if err != nil {
		if len(oracle.Translations) != 0 {
			t.Fatalf("%s: rejected (%v), but the oracle accepts %d translations", r, err, len(oracle.Translations))
		}
		return
	}
	found := false
	for _, tr := range oracle.Translations {
		found = found || tr.Equal(pick.Translation)
		if tr.StrictlySimplerThan(pick.Translation) {
			t.Errorf("%s: picked %s %s, but the acceptable %s is strictly simpler", r, pick.Class, pick.Translation, tr)
		}
	}
	if !found {
		t.Errorf("%s: picked %s %s, which the oracle does not accept", r, pick.Class, pick.Translation)
	}
}

// TestDefaultPickIsMinimalAcceptable checks the default policy against
// the oracle on small random SP and join instances, for every request
// kind. A policy ranking candidates by encoding alone fails it: it
// picks R-4 (insert the new row, flip the old one out of the view) for
// a key-moving replace that R-2 (one replace) translates more simply.
func TestDefaultPickIsMinimalAcceptable(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep skipped in -short mode")
	}
	kinds := []update.Kind{update.Insert, update.Delete, update.Replace}
	for seed := int64(0); seed < 5; seed++ {
		w, err := workload.NewSP(workload.SPConfig{
			Keys: 6, Attrs: 2, DomainSize: 3, SelectingAttrs: 1, HiddenAttrs: 1, Tuples: 4, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			if r, ok := w.NextRequest(kind); ok {
				checkMinimalAcceptable(t, w.DB, w.View, r, bruteforce.Config{MaxOps: 2})
			}
		}
	}

	// Join views: the small trees whose nodes select and hide
	// attributes, every request kind, searched at two ops or at the
	// largest candidate's, so the pick is in reach.
	for seed := int64(0); seed < 12; seed++ {
		w, err := workload.SmallTree(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			r, ok := w.RandomRequest(kind)
			if !ok {
				continue
			}
			cfg := bruteforce.Config{MaxOps: 2, MaxUniverse: 5000}
			cands, _ := core.Enumerate(w.DB, w.View, r)
			for _, c := range cands {
				cfg.MaxOps = max(cfg.MaxOps, c.Translation.Len())
			}
			checkMinimalAcceptable(t, w.DB, w.View, r, cfg)
		}
	}
}
