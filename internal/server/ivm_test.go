package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// ivmScript defines an SP view, a join view, and enough domain room for
// a churn stream: CXD is the join root, AB the referenced non-root.
const ivmScript = `
CREATE DOMAIN ADom AS STRING ('a0', 'a1', 'a2', 'a3', 'a4', 'a5');
CREATE DOMAIN BDom AS INT RANGE 1 TO 99;
CREATE DOMAIN CDom AS STRING ('c0', 'c1', 'c2', 'c3', 'c4', 'c5', 'c6', 'c7');
CREATE DOMAIN DDom AS INT RANGE 1 TO 99;
CREATE TABLE AB (A ADom, B BDom, PRIMARY KEY (A));
CREATE TABLE CXD (C CDom, X ADom, D DDom, PRIMARY KEY (C),
                  FOREIGN KEY (X) REFERENCES AB);
INSERT INTO AB VALUES ('a0', 1);
INSERT INTO AB VALUES ('a1', 2);
INSERT INTO AB VALUES ('a2', 3);
INSERT INTO CXD VALUES ('c0', 'a0', 10);
INSERT INTO CXD VALUES ('c1', 'a0', 11);
INSERT INTO CXD VALUES ('c2', 'a1', 12);
CREATE VIEW ABV AS SELECT * FROM AB;
CREATE VIEW CXDV AS SELECT * FROM CXD;
CREATE JOIN VIEW J ROOT CXDV WITH CXDV (X) REFERENCES ABV;
`

func newIVMEngine(t *testing.T, mut func(*Config)) *Engine {
	t.Helper()
	cfg := Config{MaxInFlight: 16, MaxBatch: 8, RequestTimeout: 5 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	e, err := NewEngine(cfg, ivmScript)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// checkViewsFresh reads every view through the (possibly patched)
// cache and pins it byte-for-byte to a fresh materialization of the
// published snapshot.
func checkViewsFresh(t *testing.T, e *Engine, ctx string) {
	t.Helper()
	db, _ := e.Snapshot()
	for _, name := range e.ViewNames() {
		v, _, err := e.lookupView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, want := e.materializeOn(v, db), v.Materialize(db)
		if !got.Equal(want) {
			t.Fatalf("%s: cached %s has %d rows, fresh materialization %d",
				ctx, name, got.Len(), want.Len())
		}
	}
}

// randomBaseTranslation draws a random base change: payload replaces on
// both levels, FK retargets, root inserts/deletes, non-root inserts —
// occasionally invalid against the current state (skipped by the
// caller on conflict).
func randomBaseTranslation(e *Engine, rng *rand.Rand) *update.Translation {
	db, _ := e.Snapshot()
	sch := db.Schema()
	ab, cxd := sch.Relation("AB"), sch.Relation("CXD")
	abTs, cxdTs := db.Tuples("AB"), db.Tuples("CXD")
	pick := func(ts []tuple.T) (tuple.T, bool) {
		if len(ts) == 0 {
			return tuple.T{}, false
		}
		return ts[rng.Intn(len(ts))], true
	}
	switch rng.Intn(6) {
	case 0: // non-root payload replace: the IVM-critical case
		old, ok := pick(abTs)
		if !ok {
			return nil
		}
		return update.NewTranslation(update.NewReplace(old,
			old.MustWith("B", value.NewInt(int64(1+rng.Intn(99))))))
	case 1: // root payload replace
		old, ok := pick(cxdTs)
		if !ok {
			return nil
		}
		return update.NewTranslation(update.NewReplace(old,
			old.MustWith("D", value.NewInt(int64(1+rng.Intn(99))))))
	case 2: // root FK retarget
		old, ok := pick(cxdTs)
		if !ok {
			return nil
		}
		parent, ok := pick(abTs)
		if !ok {
			return nil
		}
		return update.NewTranslation(update.NewReplace(old,
			old.MustWith("X", parent.MustGet("A"))))
	case 3: // root insert under a random key (conflicts when taken)
		parent, ok := pick(abTs)
		if !ok {
			return nil
		}
		c := value.NewString(fmt.Sprintf("c%d", rng.Intn(8)))
		return update.NewTranslation(update.NewInsert(tuple.MustNew(cxd,
			c, parent.MustGet("A"), value.NewInt(int64(1+rng.Intn(99))))))
	case 4: // root delete
		old, ok := pick(cxdTs)
		if !ok {
			return nil
		}
		return update.NewTranslation(update.NewDelete(old))
	default: // non-root insert under a random key (conflicts when taken)
		a := value.NewString(fmt.Sprintf("a%d", rng.Intn(6)))
		return update.NewTranslation(update.NewInsert(tuple.MustNew(ab,
			a, value.NewInt(int64(1+rng.Intn(99))))))
	}
}

// TestViewCachePatchedAcrossCommits is the serving half of the IVM
// churn property: after every commit of a random base-change stream,
// the delta-patched cached sets must equal a fresh materialization of
// the published snapshot — and after the warmup reads, no commit may
// trigger a rematerialization (server.ivm.rebuild stays flat while
// server.ivm.patch grows).
func TestViewCachePatchedAcrossCommits(t *testing.T) {
	sink := metricsSink(t)
	e := newIVMEngine(t, nil)
	rng := rand.New(rand.NewSource(5))

	checkViewsFresh(t, e, "warmup")
	warm := sink.Metrics().Snapshot()
	if warm.Counters["server.ivm.rebuild"] == 0 {
		t.Fatal("warmup reads should have rebuilt the cold cache")
	}

	committed := 0
	for i := 0; i < 60; i++ {
		tr := randomBaseTranslation(e, rng)
		if tr == nil {
			continue
		}
		if _, err := e.Commit(context.Background(), tr, false, 0); err != nil {
			continue // randomly invalid against the current state
		}
		committed++
		checkViewsFresh(t, e, fmt.Sprintf("after commit %d", i))
	}
	if committed < 20 {
		t.Fatalf("only %d/60 random commits landed", committed)
	}

	snap := sink.Metrics().Snapshot()
	if got, want := snap.Counters["server.ivm.rebuild"], warm.Counters["server.ivm.rebuild"]; got != want {
		t.Errorf("server.ivm.rebuild grew from %d to %d: commits invalidated warm entries", want, got)
	}
	if snap.Counters["server.ivm.patch"] == 0 {
		t.Error("server.ivm.patch = 0: no cached set was delta-patched")
	}
	if snap.Counters["server.viewcache.hit"] == 0 {
		t.Error("server.viewcache.hit = 0: patched entries were never served")
	}
}

// TestViewCacheDDLForcesRebuild pins the patch-vs-rebuild decision: DDL
// goes through ExecScript, which bumps the version without patching, so
// the next read rematerializes.
func TestViewCacheDDLForcesRebuild(t *testing.T) {
	sink := metricsSink(t)
	e := newIVMEngine(t, nil)
	checkViewsFresh(t, e, "warmup")
	before := sink.Metrics().Snapshot()

	if _, err := e.ExecScript("INSERT INTO AB VALUES ('a5', 50);"); err != nil {
		t.Fatal(err)
	}
	checkViewsFresh(t, e, "after DDL-path script")

	after := sink.Metrics().Snapshot()
	if after.Counters["server.ivm.rebuild"] <= before.Counters["server.ivm.rebuild"] {
		t.Error("ExecScript should invalidate the cache and force rebuilds")
	}
}
