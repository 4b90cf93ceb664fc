package server

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
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

// checkViewsFresh loads the published snapshot, reads every view from
// its (possibly carried-forward) memo and pins it byte-for-byte to a
// fresh materialization of that same snapshot's database.
func checkViewsFresh(t *testing.T, e *Engine, ctx string) {
	t.Helper()
	s := e.snap.Load()
	for _, name := range e.ViewNames() {
		v, _, err := e.lookupView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsFresh(t, v, s.rows(v), s.Database, ctx)
	}
}

// checkRowsFresh is the IVM ≡ rebuild comparison: got must equal v
// materialized over db.
func checkRowsFresh(t *testing.T, v view.View, got *tuple.Set, db *storage.Database, ctx string) {
	t.Helper()
	if want := v.Materialize(db); !got.Equal(want) {
		t.Fatalf("%s: served %s has %d rows, fresh materialization %d",
			ctx, v.Name(), got.Len(), want.Len())
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
// churn property, and the proof that publish is atomic: while a random
// base-change stream commits, every (rows, version) any reader is
// served equals a fresh materialization of the database published at
// that version — and once the views are warm no commit may cost a
// rematerialization, however many readers race the publishes
// (server.ivm.rebuild stays flat while server.ivm.patch grows). The
// committer itself re-reads every view after every commit, so zero
// extra readers is the single-goroutine case.
func TestViewCachePatchedAcrossCommits(t *testing.T) {
	for _, tc := range []struct {
		name             string
		readers, commits int
	}{
		{"single goroutine", 0, 20},
		{"concurrent readers", 4, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := metricsSink(t)
			e := newIVMEngine(t, nil)
			rng := rand.New(rand.NewSource(5))
			names := e.ViewNames()

			checkViewsFresh(t, e, "warmup")
			warm := sink.Metrics().Snapshot()
			if warm.Counters["server.ivm.rebuild"] == 0 {
				t.Fatal("warmup reads should have filled the cold memo")
			}

			// Readers keep the first rows they were served per (view,
			// version); the committer keeps the database of every version.
			type served struct {
				view    string
				version uint64
			}
			seen := make([]map[served]*tuple.Set, tc.readers)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := range seen {
				seen[r] = map[served]*tuple.Set{}
				wg.Add(1)
				go func(mine map[served]*tuple.Set) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, name := range names {
							set, version, err := e.ReadView(name)
							if err != nil {
								t.Error(err)
								return
							}
							if _, ok := mine[served{name, version}]; !ok {
								mine[served{name, version}] = set
							}
						}
					}
				}(seen[r])
			}

			db, version := e.Snapshot()
			dbs := map[uint64]*storage.Database{version: db}
			committed := 0
			for i := 0; committed < tc.commits && i < 10*tc.commits; i++ {
				tr := randomBaseTranslation(e, rng)
				if tr == nil {
					continue
				}
				landedAt, err := e.Commit(context.Background(), tr, false, 0)
				if err != nil {
					continue // randomly invalid against the current state
				}
				committed++
				if db, version = e.Snapshot(); version != landedAt {
					t.Fatalf("published version %d after the only committer landed %d", version, landedAt)
				}
				dbs[version] = db
				checkViewsFresh(t, e, fmt.Sprintf("after commit %d", i))
			}
			close(stop)
			wg.Wait()
			if committed < tc.commits {
				t.Fatalf("only %d/%d random commits landed", committed, tc.commits)
			}

			for _, mine := range seen {
				for at, set := range mine {
					v, _, err := e.lookupView(at.view, nil)
					if err != nil {
						t.Fatal(err)
					}
					checkRowsFresh(t, v, set, dbs[at.version], fmt.Sprintf("reader at version %d", at.version))
				}
			}

			snap := sink.Metrics().Snapshot()
			if got, want := snap.Counters["server.ivm.rebuild"], warm.Counters["server.ivm.rebuild"]; got != want {
				t.Errorf("server.ivm.rebuild grew from %d to %d over %d commits: warm rows were thrown away", want, got, committed)
			}
			if snap.Counters["server.ivm.patch"] == 0 {
				t.Error("server.ivm.patch = 0: no warm set was delta-patched")
			}
			if snap.Counters["server.viewcache.hit"] == 0 {
				t.Error("server.viewcache.hit = 0: carried rows were never served")
			}
			if fills := snap.Counters["server.viewcache.miss"]; snap.Counters["server.ivm.rebuild"] != fills {
				t.Errorf("server.ivm.rebuild = %d but %d memo fills: it must count rematerializations only",
					snap.Counters["server.ivm.rebuild"], fills)
			}
		})
	}
}

// TestViewCacheDDLForcesRebuild pins the patch-vs-rebuild decision: a
// script that defines anything bumps the version without patching, so
// the next read rematerializes — even the rows its own DML moved.
func TestViewCacheDDLForcesRebuild(t *testing.T) {
	sink := metricsSink(t)
	e := newIVMEngine(t, nil)
	checkViewsFresh(t, e, "warmup")
	before := sink.Metrics().Snapshot()

	if _, err := e.ExecScript("CREATE VIEW A5 AS SELECT * FROM AB WHERE A = 'a5'; INSERT INTO AB VALUES ('a5', 50);"); err != nil {
		t.Fatal(err)
	}
	checkViewsFresh(t, e, "after a script with DDL")

	after := sink.Metrics().Snapshot()
	if after.Counters["server.ivm.rebuild"] <= before.Counters["server.ivm.rebuild"] {
		t.Error("ExecScript should invalidate the cache and force rebuilds")
	}
}

// TestRequestReadsTheSnapshotItTranslatedAgainst: a wire replace whose
// Translate loaded version N resolves its where row from N's memo even
// though commits N+1… land before its builder runs — no cold fill, and
// no silent O(view) materialization either (the builder's allocations
// do not scale with the view).
func TestRequestReadsTheSnapshotItTranslatedAgainst(t *testing.T) {
	sink := metricsSink(t)
	e := newTestEngine(t, "", nil)
	const rows = 400
	var seed strings.Builder
	for k := 1; k <= rows; k++ {
		fmt.Fprintf(&seed, "INSERT INTO EMP VALUES (%d, 'NY');\n", k)
	}
	if _, err := e.ExecScript(seed.String()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ReadView("NY"); err != nil { // warm
		t.Fatal(err)
	}
	_, loaded := e.Snapshot()
	warm := sink.Metrics().Snapshot()

	inner := e.buildRequest(update.Replace, updateBody{
		Where: map[string]string{"EmpNo": "1"}, Set: map[string]string{"EmpNo": "5000"}})
	var allocs float64
	build := func(v view.View, src storage.Source) (core.Request, error) {
		for k := rows + 1; k <= rows+3; k++ {
			if err := insertKey(e, k); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(10, func() {
			if _, err := inner(v, src); err != nil {
				t.Fatal(err)
			}
		})
		return inner(v, src)
	}
	_, _, _, base, err := e.Translate(context.Background(), "NY", nil, build)
	if err != nil {
		t.Fatal(err)
	}
	if _, now := e.Snapshot(); base != loaded || now != loaded+3 {
		t.Fatalf("translated against version %d with %d published; want %d and %d", base, now, loaded, loaded+3)
	}
	after := sink.Metrics().Snapshot()
	if d := after.Counters["server.viewcache.miss"] - warm.Counters["server.viewcache.miss"]; d != 0 {
		t.Errorf("%d cold fills while resolving a row of a warm view", d)
	}
	if allocs > rows/4 {
		t.Errorf("resolving one row of a warm %d-row view allocates %.0f: the view was rematerialized", rows, allocs)
	}
}
