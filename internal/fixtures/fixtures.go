// Package fixtures provides the schemas and instances used across
// tests, examples and experiments: the paper's EMP example (§4-1), the
// paper's AB/CXD reference-connection figure (§5-1), and a three-level
// university enrollment tree exercising deeper SPJ walks.
package fixtures

import (
	"fmt"

	"viewupdate/internal/algebra"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// Emp bundles the paper's EMP relation (§4-1): "each employee's number,
// name, location, and whether the employee is a member of the company
// baseball team. The company has two locations: New York and San
// Francisco."
type Emp struct {
	Schema *schema.Database
	Rel    *schema.Relation
	// ViewP is Susan's view: SELECT * FROM EMP WHERE Location='New York'.
	ViewP *view.SP
	// ViewB is Frank's view: SELECT * FROM EMP WHERE Baseball=true.
	ViewB *view.SP
}

// NewEmp builds the EMP schema with employee numbers 1..maxEmpNo and
// the two views of the paper.
func NewEmp(maxEmpNo int64) *Emp {
	empNo, err := schema.IntRangeDomain("EmpNoDom", 1, maxEmpNo)
	if err != nil {
		panic(err)
	}
	names, err := schema.StringDomain("NameDom",
		"Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy", "Susan")
	if err != nil {
		panic(err)
	}
	loc, err := schema.StringDomain("LocationDom", "New York", "San Francisco")
	if err != nil {
		panic(err)
	}
	baseball := schema.BoolDomain("BaseballDom")

	rel := schema.MustRelation("EMP", []schema.Attribute{
		{Name: "EmpNo", Domain: empNo},
		{Name: "Name", Domain: names},
		{Name: "Location", Domain: loc},
		{Name: "Baseball", Domain: baseball},
	}, []string{"EmpNo"})

	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		panic(err)
	}

	selP := algebra.NewSelection(rel).MustAddTerm("Location", value.NewString("New York"))
	selB := algebra.NewSelection(rel).MustAddTerm("Baseball", value.NewBool(true))

	return &Emp{
		Schema: sch,
		Rel:    rel,
		ViewP:  view.MustNewSP("ViewP", selP, rel.AttributeNames()),
		ViewB:  view.MustNewSP("ViewB", selB, rel.AttributeNames()),
	}
}

// Tuple builds an EMP tuple.
func (e *Emp) Tuple(no int64, name, loc string, baseball bool) tuple.T {
	return tuple.MustNew(e.Rel,
		value.NewInt(no), value.NewString(name), value.NewString(loc), value.NewBool(baseball))
}

// ViewTuple builds a tuple of the given view's schema (both views
// project all attributes, so the shape matches Tuple).
func (e *Emp) ViewTuple(v *view.SP, no int64, name, loc string, baseball bool) tuple.T {
	return tuple.MustNew(v.Schema(),
		value.NewInt(no), value.NewString(name), value.NewString(loc), value.NewBool(baseball))
}

// PaperInstance loads the worked example's employees: #17 in New York
// on the team, #14 in San Francisco on the team, and a few bystanders.
func (e *Emp) PaperInstance() *storage.Database {
	db := storage.Open(e.Schema)
	must(db.Load("EMP",
		e.Tuple(17, "Susan", "New York", true),
		e.Tuple(14, "Frank", "San Francisco", true),
		e.Tuple(3, "Alice", "New York", false),
		e.Tuple(5, "Bob", "San Francisco", false),
		e.Tuple(8, "Carol", "New York", true),
	))
	return db
}

// ABCXD bundles the reference-connection figure of §5-1: AB(A*, B) and
// CXD(C*, X, D) with X referencing AB's key A, joined into the view
// CXD ⋈ AB rooted at CXD.
type ABCXD struct {
	Schema *schema.Database
	AB     *schema.Relation
	CXD    *schema.Relation
	// View is the identity-SP join view rooted at CXD.
	View *view.Join
	// RootNode and ParentNode expose the query graph.
	RootNode, ParentNode *view.Node
}

// NewABCXD builds the figure's schema. Domains are small and finite as
// in the paper's model.
func NewABCXD() *ABCXD {
	aDom, err := schema.StringDomain("ADom", "a", "a1", "a2", "a3")
	if err != nil {
		panic(err)
	}
	bDom, err := schema.IntRangeDomain("BDom", 1, 9)
	if err != nil {
		panic(err)
	}
	cDom, err := schema.StringDomain("CDom", "c1", "c2", "c3", "c4")
	if err != nil {
		panic(err)
	}
	dDom, err := schema.IntRangeDomain("DDom", 1, 9)
	if err != nil {
		panic(err)
	}

	ab := schema.MustRelation("AB", []schema.Attribute{
		{Name: "A", Domain: aDom},
		{Name: "B", Domain: bDom},
	}, []string{"A"})
	cxd := schema.MustRelation("CXD", []schema.Attribute{
		{Name: "C", Domain: cDom},
		{Name: "X", Domain: aDom},
		{Name: "D", Domain: dDom},
	}, []string{"C"})

	sch := schema.NewDatabase()
	must(sch.AddRelation(ab))
	must(sch.AddRelation(cxd))
	must(sch.AddInclusion(schema.InclusionDependency{
		Child: "CXD", ChildAttrs: []string{"X"}, Parent: "AB",
	}))

	parent := &view.Node{SP: view.Identity("ABv", ab)}
	root := &view.Node{
		SP:   view.Identity("CXDv", cxd),
		Refs: []view.Ref{{Attrs: []string{"X"}, Target: parent}},
	}
	jv := view.MustNewJoin("CXD_AB", sch, root)
	return &ABCXD{Schema: sch, AB: ab, CXD: cxd, View: jv, RootNode: root, ParentNode: parent}
}

// ABTuple builds an AB tuple.
func (f *ABCXD) ABTuple(a string, b int64) tuple.T {
	return tuple.MustNew(f.AB, value.NewString(a), value.NewInt(b))
}

// CXDTuple builds a CXD tuple.
func (f *ABCXD) CXDTuple(c, x string, d int64) tuple.T {
	return tuple.MustNew(f.CXD, value.NewString(c), value.NewString(x), value.NewInt(d))
}

// ViewTuple builds a view tuple (C, X, D, A, B) with X = A as the join
// requires.
func (f *ABCXD) ViewTuple(c, x string, d int64, b int64) tuple.T {
	return tuple.MustNew(f.View.Schema(),
		value.NewString(c), value.NewString(x), value.NewInt(d),
		value.NewString(x), value.NewInt(b))
}

// PaperInstance loads the figure's instance: AB = {(a,1)} plus another
// parent, CXD referencing them.
func (f *ABCXD) PaperInstance() *storage.Database {
	db := storage.Open(f.Schema)
	must(db.LoadAll(
		f.ABTuple("a", 1),
		f.ABTuple("a2", 2),
		f.CXDTuple("c1", "a", 3),
		f.CXDTuple("c2", "a2", 4),
	))
	return db
}

// SelABCXD is the §5-1 figure with a selection at each node:
// CXD(C*, X, D) under D ∈ {1, 2}, and AB(A*, B, H) with H hidden and,
// when the parent is selected, B ∈ {1}. Every domain holds two or three
// values, so exhaustive search over an instance is cheap.
type SelABCXD struct {
	Schema *schema.Database
	AB     *schema.Relation
	CXD    *schema.Relation
	View   *view.Join
}

// NewSelABCXD builds the figure; parentSelected adds B ∈ {1} to the
// parent's SP view.
func NewSelABCXD(parentSelected bool) *SelABCXD {
	aDom := schema.MustDomain("SelADom", value.NewString("a"), value.NewString("a2"))
	bDom := schema.MustDomain("SelBDom", value.NewInt(1), value.NewInt(2))
	hDom := schema.MustDomain("SelHDom", value.NewString("h1"), value.NewString("h2"))
	cDom := schema.MustDomain("SelCDom", value.NewString("c1"), value.NewString("c2"), value.NewString("c3"))
	dDom := schema.MustDomain("SelDDom", value.NewInt(1), value.NewInt(2), value.NewInt(3))
	ab := schema.MustRelation("AB", []schema.Attribute{
		{Name: "A", Domain: aDom}, {Name: "B", Domain: bDom}, {Name: "H", Domain: hDom},
	}, []string{"A"})
	cxd := schema.MustRelation("CXD", []schema.Attribute{
		{Name: "C", Domain: cDom}, {Name: "X", Domain: aDom}, {Name: "D", Domain: dDom},
	}, []string{"C"})
	sch := schema.NewDatabase()
	must(sch.AddRelation(ab))
	must(sch.AddRelation(cxd))
	must(sch.AddInclusion(schema.InclusionDependency{Child: "CXD", ChildAttrs: []string{"X"}, Parent: "AB"}))

	abSel := algebra.NewSelection(ab)
	if parentSelected {
		abSel.MustAddTerm("B", value.NewInt(1))
	}
	parent := &view.Node{SP: view.MustNewSP("ABv", abSel, []string{"A", "B"})}
	cxdSel := algebra.NewSelection(cxd).MustAddTerm("D", value.NewInt(1), value.NewInt(2))
	root := &view.Node{
		SP:   view.MustNewSP("CXDv", cxdSel, cxd.AttributeNames()),
		Refs: []view.Ref{{Attrs: []string{"X"}, Target: parent}},
	}
	return &SelABCXD{Schema: sch, AB: ab, CXD: cxd, View: view.MustNewJoin("CXD_AB", sch, root)}
}

// ABTuple builds an AB tuple.
func (f *SelABCXD) ABTuple(a string, b int64, h string) tuple.T {
	return tuple.MustNew(f.AB, value.NewString(a), value.NewInt(b), value.NewString(h))
}

// CXDTuple builds a CXD tuple.
func (f *SelABCXD) CXDTuple(c, x string, d int64) tuple.T {
	return tuple.MustNew(f.CXD, value.NewString(c), value.NewString(x), value.NewInt(d))
}

// ViewTuple builds a view tuple (C, X, D, A, B) with X = A.
func (f *SelABCXD) ViewTuple(c, x string, d, b int64) tuple.T {
	return tuple.MustNew(f.View.Schema(),
		value.NewString(c), value.NewString(x), value.NewInt(d),
		value.NewString(x), value.NewInt(b))
}

// Load opens a database holding ts.
func (f *SelABCXD) Load(ts ...tuple.T) *storage.Database {
	db := storage.Open(f.Schema)
	must(db.LoadAll(ts...))
	return db
}

// University bundles a three-level tree: ENROLL(EID*, SID, CID, Grade)
// references STUDENT(SID*, SName, Year) and COURSE(CID*, Title, Dept);
// COURSE references DEPT(Dept*, Building). The join view is rooted at
// ENROLL.
type University struct {
	Schema  *schema.Database
	Enroll  *schema.Relation
	Student *schema.Relation
	Course  *schema.Relation
	Dept    *schema.Relation
	// View is the identity join view over the full tree.
	View *view.Join
	// Nodes in preorder: enroll, student, course, dept.
	EnrollNode, StudentNode, CourseNode, DeptNode *view.Node
}

// NewUniversity builds the university schema with nEnroll enrollment
// ids.
func NewUniversity(nEnroll int64) *University {
	eid, err := schema.IntRangeDomain("EIDDom", 1, nEnroll)
	if err != nil {
		panic(err)
	}
	sid, err := schema.StringDomain("SIDDom", "s1", "s2", "s3", "s4", "s5", "s6")
	if err != nil {
		panic(err)
	}
	cid, err := schema.StringDomain("CIDDom", "db", "os", "pl", "ai")
	if err != nil {
		panic(err)
	}
	grade, err := schema.IntRangeDomain("GradeDom", 0, 4)
	if err != nil {
		panic(err)
	}
	sname, err := schema.StringDomain("SNameDom", "Ada", "Ben", "Cy", "Dee", "Eli", "Fay")
	if err != nil {
		panic(err)
	}
	year, err := schema.IntRangeDomain("YearDom", 1, 4)
	if err != nil {
		panic(err)
	}
	title, err := schema.StringDomain("TitleDom", "Databases", "Systems", "Languages", "Learning")
	if err != nil {
		panic(err)
	}
	dept, err := schema.StringDomain("DeptDom", "cs", "ee", "math")
	if err != nil {
		panic(err)
	}
	bldg, err := schema.StringDomain("BldgDom", "Gates", "Allen", "Soda")
	if err != nil {
		panic(err)
	}

	// Foreign-key attributes carry their own names (Stu, Crs, Dpt), as
	// in the paper's figure where X references A: join-view attribute
	// names must be globally distinct.
	enroll := schema.MustRelation("ENROLL", []schema.Attribute{
		{Name: "EID", Domain: eid},
		{Name: "Stu", Domain: sid},
		{Name: "Crs", Domain: cid},
		{Name: "Grade", Domain: grade},
	}, []string{"EID"})
	student := schema.MustRelation("STUDENT", []schema.Attribute{
		{Name: "SID", Domain: sid},
		{Name: "SName", Domain: sname},
		{Name: "Year", Domain: year},
	}, []string{"SID"})
	course := schema.MustRelation("COURSE", []schema.Attribute{
		{Name: "CID", Domain: cid},
		{Name: "Title", Domain: title},
		{Name: "Dpt", Domain: dept},
	}, []string{"CID"})
	deptRel := schema.MustRelation("DEPT", []schema.Attribute{
		{Name: "DName", Domain: dept},
		{Name: "Building", Domain: bldg},
	}, []string{"DName"})

	sch := schema.NewDatabase()
	must(sch.AddRelation(enroll))
	must(sch.AddRelation(student))
	must(sch.AddRelation(course))
	must(sch.AddRelation(deptRel))
	must(sch.AddInclusion(schema.InclusionDependency{Child: "ENROLL", ChildAttrs: []string{"Stu"}, Parent: "STUDENT"}))
	must(sch.AddInclusion(schema.InclusionDependency{Child: "ENROLL", ChildAttrs: []string{"Crs"}, Parent: "COURSE"}))
	must(sch.AddInclusion(schema.InclusionDependency{Child: "COURSE", ChildAttrs: []string{"Dpt"}, Parent: "DEPT"}))

	deptNode := &view.Node{SP: view.Identity("DEPTv", deptRel)}
	courseNode := &view.Node{
		SP:   view.Identity("COURSEv", course),
		Refs: []view.Ref{{Attrs: []string{"Dpt"}, Target: deptNode}},
	}
	studentNode := &view.Node{SP: view.Identity("STUDENTv", student)}
	enrollNode := &view.Node{
		SP: view.Identity("ENROLLv", enroll),
		Refs: []view.Ref{
			{Attrs: []string{"Stu"}, Target: studentNode},
			{Attrs: []string{"Crs"}, Target: courseNode},
		},
	}
	jv := view.MustNewJoin("TRANSCRIPT", sch, enrollNode)
	return &University{
		Schema: sch, Enroll: enroll, Student: student, Course: course, Dept: deptRel,
		View:       jv,
		EnrollNode: enrollNode, StudentNode: studentNode, CourseNode: courseNode, DeptNode: deptNode,
	}
}

// EnrollTuple builds an ENROLL tuple.
func (u *University) EnrollTuple(eid int64, sid, cid string, grade int64) tuple.T {
	return tuple.MustNew(u.Enroll,
		value.NewInt(eid), value.NewString(sid), value.NewString(cid), value.NewInt(grade))
}

// StudentTuple builds a STUDENT tuple.
func (u *University) StudentTuple(sid, name string, year int64) tuple.T {
	return tuple.MustNew(u.Student, value.NewString(sid), value.NewString(name), value.NewInt(year))
}

// CourseTuple builds a COURSE tuple.
func (u *University) CourseTuple(cid, title, dept string) tuple.T {
	return tuple.MustNew(u.Course, value.NewString(cid), value.NewString(title), value.NewString(dept))
}

// DeptTuple builds a DEPT tuple.
func (u *University) DeptTuple(dept, bldg string) tuple.T {
	return tuple.MustNew(u.Dept, value.NewString(dept), value.NewString(bldg))
}

// ViewTuple builds a TRANSCRIPT view tuple. The view schema is the
// preorder concatenation (EID, Stu, Crs, Grade, SID, SName, Year, CID,
// Title, Dpt, DName, Building) with Stu=SID, Crs=CID, Dpt=DName forced
// by the joins.
func (u *University) ViewTuple(eid int64, stu, crs string, grade int64, sname string, year int64, title, dpt, bldg string) tuple.T {
	return tuple.MustNew(u.View.Schema(),
		value.NewInt(eid), value.NewString(stu), value.NewString(crs), value.NewInt(grade),
		value.NewString(stu), value.NewString(sname), value.NewInt(year),
		value.NewString(crs), value.NewString(title), value.NewString(dpt),
		value.NewString(dpt), value.NewString(bldg))
}

// SmallInstance loads a consistent three-level instance.
func (u *University) SmallInstance() *storage.Database {
	db := storage.Open(u.Schema)
	must(db.LoadAll(
		u.DeptTuple("cs", "Gates"),
		u.DeptTuple("ee", "Allen"),
		u.CourseTuple("db", "Databases", "cs"),
		u.CourseTuple("os", "Systems", "cs"),
		u.CourseTuple("ai", "Learning", "ee"),
		u.StudentTuple("s1", "Ada", 2),
		u.StudentTuple("s2", "Ben", 3),
		u.EnrollTuple(1, "s1", "db", 4),
		u.EnrollTuple(2, "s2", "os", 3),
	))
	return db
}

// Diamond bundles a rooted-DAG query graph (the §5-1 footnote
// extension): ROOT references A and B, and both A and B reference the
// shared node C. A view row exists only when both paths converge on the
// same C tuple.
type Diamond struct {
	Schema          *schema.Database
	Root, A, B, C   *schema.Relation
	View            *view.Join
	RootNode, CNode *view.Node
	ANode, BNode    *view.Node
}

// NewDiamond builds the diamond schema and view over keys 1..9 and
// payloads 0..9.
func NewDiamond() *Diamond { return NewDiamondOver(9, 10) }

// NewDiamondOver builds the diamond over keys 1..keys and payloads
// 0..payloads-1.
func NewDiamondOver(keys, payloads int64) *Diamond {
	keyDom, err := schema.IntRangeDomain("DiaKeyDom", 1, keys)
	if err != nil {
		panic(err)
	}
	payDom, err := schema.IntRangeDomain("DiaPayDom", 0, payloads-1)
	if err != nil {
		panic(err)
	}
	c := schema.MustRelation("C", []schema.Attribute{
		{Name: "CK", Domain: keyDom},
		{Name: "CV", Domain: payDom},
	}, []string{"CK"})
	a := schema.MustRelation("A", []schema.Attribute{
		{Name: "AK", Domain: keyDom},
		{Name: "AC", Domain: keyDom},
	}, []string{"AK"})
	b := schema.MustRelation("B", []schema.Attribute{
		{Name: "BK", Domain: keyDom},
		{Name: "BC", Domain: keyDom},
	}, []string{"BK"})
	root := schema.MustRelation("ROOT", []schema.Attribute{
		{Name: "RK", Domain: keyDom},
		{Name: "RA", Domain: keyDom},
		{Name: "RB", Domain: keyDom},
	}, []string{"RK"})

	sch := schema.NewDatabase()
	for _, r := range []*schema.Relation{c, a, b, root} {
		must(sch.AddRelation(r))
	}
	must(sch.AddInclusion(schema.InclusionDependency{Child: "A", ChildAttrs: []string{"AC"}, Parent: "C"}))
	must(sch.AddInclusion(schema.InclusionDependency{Child: "B", ChildAttrs: []string{"BC"}, Parent: "C"}))
	must(sch.AddInclusion(schema.InclusionDependency{Child: "ROOT", ChildAttrs: []string{"RA"}, Parent: "A"}))
	must(sch.AddInclusion(schema.InclusionDependency{Child: "ROOT", ChildAttrs: []string{"RB"}, Parent: "B"}))

	cNode := &view.Node{SP: view.Identity("Cv", c)}
	aNode := &view.Node{SP: view.Identity("Av", a), Refs: []view.Ref{{Attrs: []string{"AC"}, Target: cNode}}}
	bNode := &view.Node{SP: view.Identity("Bv", b), Refs: []view.Ref{{Attrs: []string{"BC"}, Target: cNode}}}
	rootNode := &view.Node{SP: view.Identity("ROOTv", root), Refs: []view.Ref{
		{Attrs: []string{"RA"}, Target: aNode},
		{Attrs: []string{"RB"}, Target: bNode},
	}}
	jv := view.MustNewJoinDAG("DIAMOND", sch, rootNode)
	return &Diamond{
		Schema: sch, Root: root, A: a, B: b, C: c,
		View: jv, RootNode: rootNode, ANode: aNode, BNode: bNode, CNode: cNode,
	}
}

// RootTuple builds a ROOT tuple.
func (d *Diamond) RootTuple(rk, ra, rb int64) tuple.T {
	return tuple.MustNew(d.Root, value.NewInt(rk), value.NewInt(ra), value.NewInt(rb))
}

// ATuple builds an A tuple.
func (d *Diamond) ATuple(ak, ac int64) tuple.T {
	return tuple.MustNew(d.A, value.NewInt(ak), value.NewInt(ac))
}

// BTuple builds a B tuple.
func (d *Diamond) BTuple(bk, bc int64) tuple.T {
	return tuple.MustNew(d.B, value.NewInt(bk), value.NewInt(bc))
}

// CTuple builds a C tuple.
func (d *Diamond) CTuple(ck, cv int64) tuple.T {
	return tuple.MustNew(d.C, value.NewInt(ck), value.NewInt(cv))
}

// ViewTuple builds a DIAMOND view tuple. The schema order is the DAG
// walk order (ROOT, A, C, B): RK, RA, RB, AK, AC, CK, CV, BK, BC, with
// RA=AK, RB=BK, AC=CK=BC forced by the joins.
func (d *Diamond) ViewTuple(rk, ra, rb, ck, cv int64) tuple.T {
	return tuple.MustNew(d.View.Schema(),
		value.NewInt(rk), value.NewInt(ra), value.NewInt(rb),
		value.NewInt(ra), value.NewInt(ck),
		value.NewInt(ck), value.NewInt(cv),
		value.NewInt(rb), value.NewInt(ck))
}

// ConvergentInstance loads a state where both paths of ROOT 1 meet at
// C 5, and ROOT 2's paths diverge (A 3 -> C 5, B 4 -> C 6).
func (d *Diamond) ConvergentInstance() *storage.Database {
	db := storage.Open(d.Schema)
	must(db.LoadAll(
		d.CTuple(5, 0), d.CTuple(6, 1),
		d.ATuple(1, 5), d.ATuple(3, 5),
		d.BTuple(2, 5), d.BTuple(4, 6),
		d.RootTuple(1, 1, 2), // A1 -> C5, B2 -> C5: converges
		d.RootTuple(2, 3, 4), // A3 -> C5, B4 -> C6: diverges
	))
	return db
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("fixtures: %v", err))
	}
}

// Load opens a database over the diamond's schema holding, on keys 1
// and 2: C 1 and C 2, each A and B key pointing at the C of its number,
// ROOT 1 whose paths meet at C 1, and ROOT 2 whose paths diverge.
func (d *Diamond) Load() *storage.Database {
	db := storage.Open(d.Schema)
	must(db.LoadAll(
		d.CTuple(1, 0), d.CTuple(2, 1),
		d.ATuple(1, 1), d.ATuple(2, 2),
		d.BTuple(1, 1), d.BTuple(2, 2),
		d.RootTuple(1, 1, 1), d.RootTuple(2, 1, 2),
	))
	return db
}
