package storage

import (
	"fmt"

	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
)

// Diff is the full-scan reference Overlay.Diff is tested against: the
// translation that transforms the state of from into the state of to —
// a delete for every tuple present in from but not in to, an insert for
// every tuple present in to but not in from. Both databases must share
// the same schema object.
func Diff(from, to *Database) (*update.Translation, error) {
	if from.sch != to.sch {
		return nil, fmt.Errorf("storage: diff across distinct schemas")
	}
	from.mu.RLock()
	defer from.mu.RUnlock()
	to.mu.RLock()
	defer to.mu.RUnlock()
	tr := update.NewTranslation()
	for _, name := range from.sch.RelationNames() {
		fe, te := from.exts[name], to.exts[name]
		fe.Each(func(t tuple.T) bool {
			if !te.Contains(t) {
				tr.Add(update.NewDelete(t))
			}
			return true
		})
		te.Each(func(t tuple.T) bool {
			if !fe.Contains(t) {
				tr.Add(update.NewInsert(t))
			}
			return true
		})
	}
	return tr, nil
}
