package storage

import (
	"testing"

	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
)

// refKeys collects the child keys Referencers reports for parent.
func refKeys(src Source, dep int, parent tuple.T) []string {
	var out []string
	for _, t := range src.Referencers(dep, parent) {
		out = append(out, t.Key())
	}
	return out
}

func wantKeys(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("referencers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("referencers = %v, want %v", got, want)
		}
	}
}

func TestReferencersTracksApply(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	if err := db.LoadAll(pt(t, p, 1, "u"), pt(t, p, 2, "v"), ct(t, c, 1, 1), ct(t, c, 2, 1)); err != nil {
		t.Fatal(err)
	}

	wantKeys(t, refKeys(db, 0, pt(t, p, 1, "u")), ct(t, c, 1, 1).Key(), ct(t, c, 2, 1).Key())
	wantKeys(t, refKeys(db, 0, pt(t, p, 2, "v")))
	// The parent probe only needs the key values: payload is ignored.
	wantKeys(t, refKeys(db, 0, pt(t, p, 1, "v")), ct(t, c, 1, 1).Key(), ct(t, c, 2, 1).Key())
	// Out-of-range dependency indexes read as empty.
	wantKeys(t, refKeys(db, -1, pt(t, p, 1, "u")))
	wantKeys(t, refKeys(db, 7, pt(t, p, 1, "u")))

	// Retarget C[2] from P[1] to P[2]: the index moves it atomically.
	if err := db.Apply(update.NewTranslation(update.NewReplace(ct(t, c, 2, 1), ct(t, c, 2, 2)))); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, refKeys(db, 0, pt(t, p, 1, "u")), ct(t, c, 1, 1).Key())
	wantKeys(t, refKeys(db, 0, pt(t, p, 2, "v")), ct(t, c, 2, 2).Key())

	// Delete C[1]: P[1] loses its last referencer.
	if err := db.Apply(update.NewTranslation(update.NewDelete(ct(t, c, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, refKeys(db, 0, pt(t, p, 1, "u")))

	// A failed apply (dangling FK) must leave the index untouched.
	if err := db.Apply(update.NewTranslation(update.NewInsert(ct(t, c, 3, 3)))); err == nil {
		t.Fatal("expected dangling insert to fail")
	}
	wantKeys(t, refKeys(db, 0, pt(t, p, 2, "v")), ct(t, c, 2, 2).Key())
}

func TestReferencersOverlayMirrorsDatabase(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	if err := db.LoadAll(pt(t, p, 1, "u"), pt(t, p, 2, "v"), ct(t, c, 1, 1), ct(t, c, 2, 1)); err != nil {
		t.Fatal(err)
	}

	tr := update.NewTranslation(
		update.NewReplace(ct(t, c, 2, 1), ct(t, c, 2, 2)), // retarget
		update.NewDelete(ct(t, c, 1, 1)),
		update.NewInsert(ct(t, c, 3, 2)),
	)
	ov := NewOverlay(db)
	if err := ov.Apply(tr); err != nil {
		t.Fatal(err)
	}

	// The overlay sees the post-change index; the base is untouched.
	wantKeys(t, refKeys(ov, 0, pt(t, p, 1, "u")))
	wantKeys(t, refKeys(ov, 0, pt(t, p, 2, "v")), ct(t, c, 2, 2).Key(), ct(t, c, 3, 2).Key())
	wantKeys(t, refKeys(db, 0, pt(t, p, 1, "u")), ct(t, c, 1, 1).Key(), ct(t, c, 2, 1).Key())

	// Applying the same translation to the database yields the same
	// index the overlay was already showing.
	if err := db.Apply(tr); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, refKeys(db, 0, pt(t, p, 1, "u")))
	wantKeys(t, refKeys(db, 0, pt(t, p, 2, "v")), ct(t, c, 2, 2).Key(), ct(t, c, 3, 2).Key())
}

func TestReferencersStackedOverlay(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	if err := db.LoadAll(pt(t, p, 1, "u"), pt(t, p, 2, "v"), ct(t, c, 1, 1)); err != nil {
		t.Fatal(err)
	}
	ov1 := NewOverlay(db)
	if err := ov1.Apply(update.NewTranslation(update.NewInsert(ct(t, c, 2, 1)))); err != nil {
		t.Fatal(err)
	}
	ov2 := NewOverlay(ov1)
	if err := ov2.Apply(update.NewTranslation(update.NewDelete(ct(t, c, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, refKeys(db, 0, pt(t, p, 1, "u")), ct(t, c, 1, 1).Key())
	wantKeys(t, refKeys(ov1, 0, pt(t, p, 1, "u")), ct(t, c, 1, 1).Key(), ct(t, c, 2, 1).Key())
	wantKeys(t, refKeys(ov2, 0, pt(t, p, 1, "u")), ct(t, c, 2, 1).Key())
}

// TestReferencersOnlyForTheParentRelation pins "tuples of other
// relations have no referencers": a child or unrelated tuple whose key
// happens to encode like a parent key must not be answered for it.
func TestReferencersOnlyForTheParentRelation(t *testing.T) {
	ch := chainSchema(t, 3, 3, 3)
	db := ch.open(t, 3, 3, func(k int64) int64 { return 1 })
	ov := NewOverlay(db)
	if err := ov.Apply(update.NewTranslation(update.NewReplace(ch.C(3, 1), ch.C(3, 2)))); err != nil {
		t.Fatal(err)
	}
	stacked := NewOverlay(ov)
	if err := stacked.Apply(update.NewTranslation(update.NewDelete(ch.C(2, 1)))); err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  Source
		want []string // the referencers of P[1] under depCP
	}{
		{"database", db, []string{ch.C(1, 1).Key(), ch.C(2, 1).Key(), ch.C(3, 1).Key()}},
		{"overlay", ov, []string{ch.C(1, 1).Key(), ch.C(2, 1).Key()}},
		{"stacked overlay", stacked, []string{ch.C(1, 1).Key()}},
	}
	cases := []struct {
		name   string
		dep    int
		parent tuple.T
		empty  bool
	}{
		{"parent tuple", depCP, ch.P(1, 1, "u"), false},
		{"child tuple on its own edge", depCP, ch.C(1, 1), true},
		{"unrelated relation", depCP, ch.G(1, "u"), true},
		{"parent of the other edge", depPG, ch.P(1, 1, "u"), true},
		{"dep below range", -1, ch.P(1, 1, "u"), true},
		{"dep above range", 2, ch.P(1, 1, "u"), true},
	}
	for _, s := range sources {
		for _, c := range cases {
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				if c.empty {
					wantKeys(t, refKeys(s.src, c.dep, c.parent))
				} else {
					wantKeys(t, refKeys(s.src, c.dep, c.parent), s.want...)
				}
			})
		}
	}
}
