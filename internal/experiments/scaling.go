package experiments

import (
	"fmt"
	"time"

	"viewupdate/internal/bruteforce"
	"viewupdate/internal/core"
	"viewupdate/internal/report"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/workload"
)

// E12Scaling measures translation latency and candidate counts as the
// database, the hidden-attribute choice space, and the join-tree depth
// grow. The paper's algorithms look at a constant number of tuples per
// request (key lookups), so latency should stay flat in database size
// and the candidate count should grow with the choice space, not the
// data.
func E12Scaling() Experiment {
	return Experiment{
		ID:      "E12",
		Title:   "Scaling of translation",
		Exhibit: "algorithm statements (implied complexity)",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E12 — translation latency and candidate counts",
				"axis", "point", "candidates", "translate_us")
			allOK := true

			// Axis 1: database size (insert translation; constant work).
			var latencies []float64
			for _, size := range []int{100, 1000, 10000, 100000} {
				w, err := workload.NewSP(workload.SPConfig{
					Keys: int64(size * 2), Attrs: 3, DomainSize: 4,
					SelectingAttrs: 1, HiddenAttrs: 1, Tuples: size, Seed: 5,
				})
				if err != nil {
					return nil, false, err
				}
				r, ok := w.NextRequest(update.Insert)
				if !ok {
					return nil, false, fmt.Errorf("E12: no insert request")
				}
				// Take the best of several batches so scheduler noise
				// and GC pauses do not distort the flatness check.
				const batches, iters = 5, 100
				best := 0.0
				var n int
				for b := 0; b < batches; b++ {
					start := time.Now()
					for i := 0; i < iters; i++ {
						cands, err := core.Enumerate(w.DB, w.View, r)
						if err != nil {
							return nil, false, err
						}
						n = len(cands)
					}
					us := float64(time.Since(start).Microseconds()) / iters
					if b == 0 || us < best {
						best = us
					}
				}
				latencies = append(latencies, best)
				t.AddRow("db size", size, n, best)
			}
			// Flatness: the largest size may cost at most 20x the
			// smallest (lookups are O(1); slack for cache effects).
			if latencies[len(latencies)-1] > 20*latencies[0]+50 {
				allOK = false
			}

			// Axis 2: hidden choice space (extend-insert candidates grow
			// multiplicatively with hidden selecting values).
			for _, hidden := range []int{0, 1, 2, 3} {
				w, err := workload.NewSP(workload.SPConfig{
					Keys: 2000, Attrs: 4, DomainSize: 4,
					SelectingAttrs: 0, HiddenAttrs: hidden, Tuples: 500, Seed: 6,
				})
				if err != nil {
					return nil, false, err
				}
				r, ok := w.NextRequest(update.Insert)
				if !ok {
					return nil, false, fmt.Errorf("E12: no insert request")
				}
				start := time.Now()
				cands, err := core.Enumerate(w.DB, w.View, r)
				if err != nil {
					return nil, false, err
				}
				us := float64(time.Since(start).Microseconds())
				want := 1
				for i := 0; i < hidden; i++ {
					want *= 4 // non-selecting hidden attr: whole domain
				}
				if len(cands) != want {
					allOK = false
				}
				t.AddRow("hidden attrs", hidden, len(cands), us)
			}

			// Axis 3: join tree depth (chain).
			for _, depth := range []int{0, 1, 2, 3, 4} {
				w, err := workload.NewTree(workload.TreeConfig{
					Depth: depth, Fanout: 1, Keys: 100, TuplesPerRelation: 20, Seed: 9,
				})
				if err != nil {
					return nil, false, err
				}
				r, ok := w.InsertRequestForFreshRoot()
				if !ok {
					return nil, false, fmt.Errorf("E12: no tree insert")
				}
				start := time.Now()
				cands, err := core.Enumerate(w.DB, w.View, r)
				if err != nil {
					return nil, false, err
				}
				us := float64(time.Since(start).Microseconds())
				if len(cands) != 1 {
					allOK = false
				}
				t.AddRow("tree depth", depth, len(cands), us)
			}
			t.Note = "latency flat in db size (key lookups); candidates grow with the hidden choice space only"
			return t, allOK, nil
		},
	}
}

// E13EnumVsBrute contrasts the algorithm classes with naive exhaustive
// search: the generators are polynomial in the choice space while the
// oracle's examined-translation count explodes with the domain size.
func E13EnumVsBrute() Experiment {
	return Experiment{
		ID:      "E13",
		Title:   "Algorithmic enumeration vs exhaustive search",
		Exhibit: "motivation for the algorithm classes",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E13 — generator vs oracle cost on one insert request",
				"domain", "universe", "examined", "oracle_ms", "generated", "generate_us", "agree")
			allOK := true
			for _, domSize := range []int{2, 3, 4} {
				sch, rel, v, db, u := e13Instance(domSize)
				_ = sch
				_ = rel
				r := core.InsertRequest(u)

				startO := time.Now()
				oracle, err := bruteforce.Search(db, v, r, bruteforce.Config{
					MaxOps: 2, MaxUniverse: 100000,
				})
				if err != nil {
					return nil, false, err
				}
				oracleMS := float64(time.Since(startO).Microseconds()) / 1000

				startG := time.Now()
				gen, err := core.Enumerate(db, v, r)
				if err != nil {
					return nil, false, err
				}
				genUS := float64(time.Since(startG).Microseconds())

				onlyO, onlyG := bruteforce.Diff(oracle, gen)
				agree := len(onlyO) == 0 && len(onlyG) == 0
				allOK = allOK && agree
				t.AddRow(domSize, oracle.Universe, oracle.Examined, oracleMS,
					len(gen), genUS, passFail(agree))
			}
			t.Note = "examined grows ~quadratically in the op universe (itself ~domain^attrs); the generators touch only the choice space"
			return t, allOK, nil
		},
	}
}

// e13Instance builds R(K*, A, S) with |dom(A)| = |dom(S)| = domSize,
// view selecting the lower half of S and hiding it, plus a hidden
// conflicting tuple so I-2 fires.
func e13Instance(domSize int) (*schema.Database, *schema.Relation, *viewSP, *storage.Database, tuple.T) {
	kDom, err := schema.IntRangeDomain("K", 1, 3)
	if err != nil {
		panic(err)
	}
	mkDom := func(name string) *schema.Domain {
		vals := make([]value.Value, domSize)
		for i := range vals {
			vals[i] = value.NewString(fmt.Sprintf("%s%d", name, i))
		}
		d, err := schema.NewDomain(name, vals...)
		if err != nil {
			panic(err)
		}
		return d
	}
	aDom := mkDom("a")
	sDom := mkDom("s")
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom},
		{Name: "A", Domain: aDom},
		{Name: "S", Domain: sDom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		panic(err)
	}
	half := sDom.Values()[:(domSize+1)/2]
	sel := newSelection(rel, "S", half...)
	v := mustSP("V", sel, []string{"K", "A"})
	db := storage.Open(sch)
	if err := db.Load("R",
		tuple.MustNew(rel, value.NewInt(1), aDom.At(0), half[0]),
	); err != nil {
		panic(err)
	}
	u := tuple.MustNew(v.Schema(), value.NewInt(2), aDom.At(0))
	return sch, rel, v, db, u
}
