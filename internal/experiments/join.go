package experiments

import (
	"fmt"

	"viewupdate/internal/bruteforce"
	"viewupdate/internal/core"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/report"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
	"viewupdate/internal/workload"
)

// E4ReferenceConnection reproduces the §5-1 figure: the AB/CXD
// reference connection and the SPJ algorithms over it.
func E4ReferenceConnection() Experiment {
	return Experiment{
		ID:      "E4",
		Title:   "Reference connection AB ⋈ CXD",
		Exhibit: "§5-1 figure",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E4 — SPJ algorithms on the paper's figure",
				"operation", "class", "ops", "view_rows_after", "outcome")
			ok := true

			// Materialization of the figure's instance.
			f := fixtures.NewABCXD()
			db := f.PaperInstance()
			rows := f.View.Materialize(db)
			ok = ok && rows.Len() == 2
			t.AddRow("materialize", "—", "—", rows.Len(), "X=A join over reference connection")

			// SPJ-D: delete touches only the root.
			row := f.ViewTuple("c1", "a", 3, 1)
			cands, err := core.EnumerateJoinDelete(db, f.View, row)
			if err != nil {
				return nil, false, err
			}
			rootOnly := true
			for _, op := range cands[0].Translation.Ops() {
				if op.RelationName() != "CXD" {
					rootOnly = false
				}
			}
			ok = ok && rootOnly && len(cands) == 1
			if err := db.Apply(cands[0].Translation); err != nil {
				return nil, false, err
			}
			t.AddRow("SPJ-D delete c1", cands[0].Class, cands[0].Translation.Len(),
				f.View.Materialize(db).Len(), fmt.Sprintf("root-only: %v", rootOnly))

			// SPJ-I: insert referencing a new parent inserts both.
			u := f.ViewTuple("c3", "a1", 5, 7)
			cands, err = core.EnumerateJoinInsert(db, f.View, u)
			if err != nil {
				return nil, false, err
			}
			if err := db.Apply(cands[0].Translation); err != nil {
				return nil, false, err
			}
			ok = ok && f.View.Materialize(db).Contains(u)
			t.AddRow("SPJ-I insert c3", cands[0].Class, cands[0].Translation.Len(),
				f.View.Materialize(db).Len(), "root + referenced parent inserted")

			// SPJ-R: re-point c3 at the other parent.
			newRow := f.ViewTuple("c3", "a2", 5, 2)
			cands, err = core.EnumerateJoinReplace(db, f.View, u, newRow)
			if err != nil {
				return nil, false, err
			}
			if err := db.Apply(cands[0].Translation); err != nil {
				return nil, false, err
			}
			ok = ok && f.View.Materialize(db).Contains(newRow)
			t.AddRow("SPJ-R repoint c3", cands[0].Class, cands[0].Translation.Len(),
				f.View.Materialize(db).Len(), "root replaced; old parent kept")

			t.Note = "reference connection = extension join (X over AB's key A) + inclusion dependency CXD[X] ⊆ AB[A]"
			return t, ok, nil
		},
	}
}

// E15DAGExtension exercises the §5-1 footnote extension: a rooted-DAG
// query graph (diamond) with convergence semantics for the shared node
// and the conservative SPJ-R state join.
func E15DAGExtension() Experiment {
	return Experiment{
		ID:      "E15",
		Title:   "Rooted-DAG query graphs (footnote extension)",
		Exhibit: "§5-1 footnote",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E15 — diamond ROOT→{A,B}→C with a shared node",
				"operation", "ops", "view_rows_after", "outcome")
			d := fixtures.NewDiamond()
			db := d.ConvergentInstance()
			ok := true

			rows := d.View.Materialize(db)
			ok = ok && rows.Len() == 1
			t.AddRow("materialize", "—", rows.Len(), "divergent row hidden (convergence)")

			// SPJ-I inserts the shared node once.
			u := d.ViewTuple(3, 7, 8, 9, 2)
			cands, err := core.EnumerateJoinInsert(db, d.View, u)
			if err != nil {
				return nil, false, err
			}
			cIns := 0
			for _, op := range cands[0].Translation.Ops() {
				if op.Kind == update.Insert && op.RelationName() == "C" {
					cIns++
				}
			}
			ok = ok && cIns == 1 && len(cands[0].Translation.Inserts()) == 4
			if err := db.Apply(cands[0].Translation); err != nil {
				return nil, false, err
			}
			t.AddRow("SPJ-I insert root 3", cands[0].Translation.Len(),
				d.View.Materialize(db).Len(), fmt.Sprintf("shared C inserted %d time(s)", cIns))

			// SPJ-R replaces the shared node once when both arms agree.
			old := d.ViewTuple(1, 1, 2, 5, 0)
			new := d.ViewTuple(1, 1, 2, 5, 3)
			cands, err = core.EnumerateJoinReplace(db, d.View, old, new)
			if err != nil {
				return nil, false, err
			}
			tr := cands[0].Translation
			ok = ok && tr.Len() == 1 && len(tr.Replacements()) == 1
			eff, err := core.SideEffects(db, d.View, core.ReplaceRequest(old, new), tr)
			if err != nil {
				return nil, false, err
			}
			if err := db.Apply(tr); err != nil {
				return nil, false, err
			}
			t.AddRow("SPJ-R shared C payload", tr.Len(), d.View.Materialize(db).Len(), eff.String())

			t.Note = "the footnote's relaxation: updates through a shared node may side-effect every row whose paths cross it"
			return t, ok, nil
		},
	}
}

// E9SPJUniqueness validates the uniqueness theorems of §5-2: with
// identity SP views, SPJ-D/I/R each admit exactly one translation
// satisfying the criteria, across tree shapes — and the exhaustive
// oracle finds that one translation and no other.
func E9SPJUniqueness() Experiment {
	return Experiment{
		ID:      "E9",
		Title:   "Uniqueness of SPJ-D/I/R on identity trees",
		Exhibit: "§5-2 theorems",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E9 — candidate counts over random reference trees, diffed against the oracle",
				"depth", "fanout", "relations", "delete", "insert", "replace", "oracle_agrees", "unique")
			allOK := true
			for _, shape := range []struct{ depth, fanout int }{
				{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1},
			} {
				w, err := workload.NewTree(workload.TreeConfig{
					Depth: shape.depth, Fanout: shape.fanout,
					Keys: 3, TuplesPerRelation: 2, PayloadDomain: 2,
					Seed: int64(31 + shape.depth*7 + shape.fanout),
				})
				if err != nil {
					return nil, false, err
				}
				row, ok := w.RandomRow()
				if !ok {
					return nil, false, fmt.Errorf("E9: empty view")
				}
				// Replace: change the root payload of a row.
				pAttr := w.Relations[0].Attributes()[1].Name
				moved := row.MustWith(pAttr, value.NewInt(1-row.MustGet(pAttr).Int()))
				reqs := map[update.Kind]core.Request{
					update.Delete:  core.DeleteRequest(row),
					update.Replace: core.ReplaceRequest(row, moved),
				}
				if r, ok := w.InsertRequestForFreshRoot(); ok {
					reqs[update.Insert] = r
				}
				counts := map[update.Kind]int{}
				agrees := true
				for kind, r := range reqs {
					cands, err := core.Enumerate(w.DB, w.View, r)
					if err != nil {
						return nil, false, err
					}
					counts[kind] = len(cands)
					onlyO, onlyG, err := bruteforce.DiffGenerators(w.DB, w.View, r)
					if err != nil {
						return nil, false, err
					}
					agrees = agrees && len(onlyO) == 0 && len(onlyG) == 0
				}

				unique := counts[update.Delete] == 1 && counts[update.Insert] == 1 && counts[update.Replace] == 1
				allOK = allOK && unique && agrees
				t.AddRow(shape.depth, shape.fanout, len(w.Relations),
					counts[update.Delete], counts[update.Insert], counts[update.Replace],
					passFail(agrees), passFail(unique))
			}
			t.Note = "identity SP views leave no arbitrary choices: each SPJ algorithm is 'the only algorithm', and the oracle finds no other"
			return t, allOK, nil
		},
	}
}

// E16SPJTheoremOracle diffs SPJ-D/I/R against the exhaustive oracle,
// in both directions, on small random trees whose nodes select and hide
// attributes, and reports how the rooted-DAG extension differs.
func E16SPJTheoremOracle() Experiment {
	return Experiment{
		ID:      "E16",
		Title:   "SPJ theorem vs the exhaustive oracle",
		Exhibit: "§5 theorems",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E16 — oracle vs SPJ-D/I/R under the one validity notion",
				"instances", "requests", "agree", "oracle_extra", "generator_extra", "asserted")
			var trees diffTally
			for seed := int64(1000); seed < 1040; seed++ {
				w, err := workload.SmallTree(seed)
				if err != nil {
					return nil, false, err
				}
				for _, kind := range []update.Kind{update.Insert, update.Delete, update.Replace} {
					if r, ok := w.RandomRequest(kind); ok {
						if err := trees.add(w.DB, w.View, r); err != nil {
							return nil, false, err
						}
					}
				}
			}
			t.AddRow("40 trees, depth 1-2, node selections and hidden attributes",
				trees.requests, trees.agree, trees.oracleExtra, trees.generatorExtra, "yes")

			d := fixtures.NewDiamondOver(2, 2)
			db := d.Load()
			rows := d.View.Materialize(db).Slice()
			var reqs []core.Request
			for _, u := range bruteforce.AllTuples(d.View.Schema()) {
				reqs = append(reqs, core.InsertRequest(u))
				for _, old := range rows {
					reqs = append(reqs, core.ReplaceRequest(old, u))
				}
			}
			for _, old := range rows {
				reqs = append(reqs, core.DeleteRequest(old))
			}
			var dag diffTally
			for _, r := range reqs {
				if core.ValidateRequest(db, d.View, r) == nil {
					if err := dag.add(db, d.View, r); err != nil {
						return nil, false, err
					}
				}
			}
			t.AddRow("diamond DAG over keys {1,2}, every valid request",
				dag.requests, dag.agree, dag.oracleExtra, dag.generatorExtra, "generator_extra = 0")
			t.Note = "the one admitted view side effect is a row following an in-place replace of a non-root tuple it references; on a DAG that replace can split a row's paths and drop the row, which the predicate refuses — so on a DAG view Enumerate keeps only the candidates the predicate and the criteria accept, and refuses a request left with none; oracle_extra counts translations no generator makes"
			return t, trees.agree == trees.requests && dag.generatorExtra == 0, nil
		},
	}
}

// diffTally counts requests diffed against the oracle: all of them,
// those where both sides agree, and those where the oracle or the
// generators hold a translation the other lacks.
type diffTally struct {
	requests, agree, oracleExtra, generatorExtra int
}

func (n *diffTally) add(db *storage.Database, v view.View, r core.Request) error {
	onlyO, onlyG, err := bruteforce.DiffGenerators(db, v, r)
	if err != nil {
		return err
	}
	n.requests++
	if len(onlyO) > 0 {
		n.oracleExtra++
	}
	if len(onlyG) > 0 {
		n.generatorExtra++
	}
	if len(onlyO)+len(onlyG) == 0 {
		n.agree++
	}
	return nil
}
