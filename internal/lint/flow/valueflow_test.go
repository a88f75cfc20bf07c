package flow

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// rdFor builds and solves reaching defs for fname in src.
func rdFor(t *testing.T, src, fname string) (*ReachingDefs, *ast.FuncDecl, *types.Info) {
	t.Helper()
	cfg, fd, info := buildFunc(t, src, fname)
	rd := NewReachingDefs(cfg, info, ParamIdents(fd.Recv, fd.Type), fd.Body)
	return rd, fd, info
}

// trackedUses returns every use occurrence with a recorded reach set,
// in source order — the domain of ReachingDefs.At.
func trackedUses(r *ReachingDefs) []*ast.Ident {
	out := make([]*ast.Ident, 0, len(r.uses))
	for id := range r.uses {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// useIdent finds the n-th tracked-use occurrence (0-based) of name
// inside fd — write-only LHS occurrences are not uses and don't count.
func useIdent(t *testing.T, rd *ReachingDefs, name string, n int) *ast.Ident {
	t.Helper()
	count := 0
	for _, id := range trackedUses(rd) {
		if id.Name == name {
			if count == n {
				return id
			}
			count++
		}
	}
	t.Fatalf("tracked use #%d of %q not found", n, name)
	return nil
}

func TestReachingDefsKillsOnReassign(t *testing.T) {
	rd, _, _ := rdFor(t, `package fixture
func f() int {
	x := 1
	x = 2
	return x
}
`, "f")
	use := useIdent(t, rd, "x", 0) // the `return x` occurrence
	defs := rd.At(use)
	if len(defs) != 1 {
		t.Fatalf("want exactly the second def reaching the return, got %d defs", len(defs))
	}
	if _, ok := defs[0].Node.(*ast.AssignStmt); !ok {
		t.Fatalf("reaching def is not the assignment: %T", defs[0].Node)
	}
}

func TestReachingDefsJoinsBranches(t *testing.T) {
	rd, _, _ := rdFor(t, `package fixture
func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}
`, "f")
	use := useIdent(t, rd, "x", 0)
	if got := len(rd.At(use)); got != 2 {
		t.Fatalf("return should see both branch defs (and not the killed initial one), got %d", got)
	}
}

func TestReachingDefsLoopCarried(t *testing.T) {
	rd, _, _ := rdFor(t, `package fixture
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}
`, "f")
	// The `s` read inside the loop body (s = s + i, RHS occurrence) sees
	// both the initial def and the loop-carried one.
	use := useIdent(t, rd, "s", 0)
	if got := len(rd.At(use)); got != 2 {
		t.Fatalf("loop body read of s should see initial + loop-carried defs, got %d", got)
	}
}

func TestReachingDefsRHSSeesOldValue(t *testing.T) {
	rd, _, _ := rdFor(t, `package fixture
func f() int {
	x := 1
	x = x + 1
	return x
}
`, "f")
	// In `x = x + 1` the RHS x must see only the := def, not the
	// assignment it feeds.
	use := useIdent(t, rd, "x", 0)
	defs := rd.At(use)
	if len(defs) != 1 {
		t.Fatalf("RHS of x = x+1 should see exactly the := def, got %d", len(defs))
	}
	if a, ok := defs[0].Node.(*ast.AssignStmt); !ok || len(a.Rhs) != 1 {
		t.Fatalf("unexpected def node %T", defs[0].Node)
	}
	if _, ok := defs[0].Node.(*ast.AssignStmt); ok {
		if defs[0].Node.(*ast.AssignStmt).Tok.String() != ":=" {
			t.Fatalf("RHS use reached by %s def, want :=", defs[0].Node.(*ast.AssignStmt).Tok)
		}
	}
}

func TestReachingDefsParamsAndRange(t *testing.T) {
	rd, _, _ := rdFor(t, `package fixture
func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
`, "f")
	vUse := useIdent(t, rd, "v", 0)
	defs := rd.At(vUse)
	if len(defs) != 1 {
		t.Fatalf("range value use should see the range binding, got %d defs", len(defs))
	}
	if _, ok := defs[0].Node.(*ast.RangeStmt); !ok {
		t.Fatalf("def node is %T, want *ast.RangeStmt", defs[0].Node)
	}
	xsUse := useIdent(t, rd, "xs", 0)
	xsDefs := rd.At(xsUse)
	if len(xsDefs) != 1 || !xsDefs[0].Entry {
		t.Fatalf("xs use should see exactly the entry (parameter) def, got %+v", xsDefs)
	}
}

func TestAllocSitesKinds(t *testing.T) {
	_, fd, info := buildFunc(t, `package fixture
func take(v any) {}
func f(p *int) {
	a := make([]int, 4)
	b := new(int)
	a = append(a, 1)
	m := map[string]int{}
	s := &struct{ x int }{}
	fn := func() {}
	take(42)        // boxes: int is not pointer-shaped
	take(p)         // exempt: pointer-shaped
	take(struct{}{}) // exempt: zero-size
	var i any = 7   // boxes via typed var decl
	_ = i
	_, _, _, _, _, _ = a, b, m, s, fn, p
}
`, "f")

	counts := map[AllocKind]int{}
	for _, site := range AllocSites(info, fd.Body) {
		counts[site.Kind]++
	}
	want := map[AllocKind]int{
		AllocMake:      1,
		AllocNew:       1,
		AllocAppend:    1,
		AllocComposite: 2, // map literal + &struct literal
		AllocClosure:   1,
		AllocBox:       2, // take(42) and var i any = 7
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%v: got %d sites, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
}

func TestAllocSitesValueStructNotFlagged(t *testing.T) {
	_, fd, info := buildFunc(t, `package fixture
type pt struct{ x, y int }
func f() int {
	p := pt{1, 2}
	return p.x
}
`, "f")
	if sites := AllocSites(info, fd.Body); len(sites) != 0 {
		t.Fatalf("value struct literal must not be an alloc site, got %v", sites)
	}
}

func TestEscapes(t *testing.T) {
	_, fd, info := buildFunc(t, `package fixture
func sink(v *int) {}
func f(ch chan *int) *int {
	a := new(int)
	b := new(int)
	c := new(int)
	d := new(int)
	e := new(int)
	local := new(int)
	ch <- b
	sink(c)
	go func() { _ = d }()
	var store *int
	store = e
	_ = store
	_ = *local
	return a
}
`, "f")
	esc := Escapes(info, fd.Body)
	find := func(name string) EscapeMask {
		for obj, m := range esc {
			if obj.Name() == name {
				return m
			}
		}
		return 0
	}
	cases := []struct {
		name string
		want EscapeMask
	}{
		{"a", EscReturned},
		{"b", EscSent},
		{"c", EscArg},
		{"d", EscCaptured},
		{"e", EscStored},
	}
	for _, c := range cases {
		if find(c.name)&c.want == 0 {
			t.Errorf("%s: mask %b missing %b", c.name, find(c.name), c.want)
		}
	}
	for obj := range esc {
		if obj.Name() == "local" {
			t.Errorf("local must not escape, got mask %b", esc[obj])
		}
	}
}
