package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file grows the CFG layer into an SSA-lite value-flow layer:
// reaching definitions over the statement-granular CFG, solved with
// multi-word bit sets (one bit per definition site instead of the
// uint64 states of CFG.Solve). The lattice is the powerset of
// definition sites ordered by inclusion, joined by union — a classic
// may-analysis, so a use "sees" every definition that reaches it along
// at least one path.

// BitSet is a fixed-capacity bit set sized at construction. It is the
// dataflow state of the reaching-definitions solver: bit i set means
// definition i may reach this program point.
type BitSet struct{ words []uint64 }

// NewBitSet returns an empty bit set with capacity for n bits.
func NewBitSet(n int) *BitSet { return &BitSet{words: make([]uint64, (n+63)/64)} }

// Set marks bit i.
func (s *BitSet) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks bit i.
func (s *BitSet) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s *BitSet) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Clone returns an independent copy of s.
func (s *BitSet) Clone() *BitSet {
	return &BitSet{words: append([]uint64(nil), s.words...)}
}

// Union ors other into s and reports whether s changed — the join
// operation of the solver, monotone by construction.
func (s *BitSet) Union(other *BitSet) bool {
	changed := false
	for i, w := range other.words {
		next := s.words[i] | w
		if next != s.words[i] {
			s.words[i] = next
			changed = true
		}
	}
	return changed
}

// Def is one definition site of a local variable: a parameter or named
// result (Entry definitions, live on function entry), an assignment, a
// short variable declaration, a var declaration, an ++/--, or a range
// clause binding.
type Def struct {
	// ID is the definition's bit index in the solver's bit sets.
	ID int
	// Obj is the variable being defined.
	Obj types.Object
	// Node is the defining statement (nil for Entry definitions).
	Node ast.Node
	// Pos locates the definition for reporting.
	Pos token.Pos
	// Entry marks parameter/receiver/named-result definitions that hold
	// on function entry.
	Entry bool
}

// ReachingDefs holds the solved reaching-definitions relation of one
// function body.
type ReachingDefs struct {
	// Defs lists every definition site, indexed by Def.ID.
	Defs []*Def

	byObj map[types.Object][]int // defs of each tracked variable
	uses  map[*ast.Ident]*BitSet // defs reaching each use occurrence
}

// ParamIdents collects the identifiers that are definitions on function
// entry: the receiver, the parameters, and any named results.
func ParamIdents(recv *ast.FieldList, typ *ast.FuncType) []*ast.Ident {
	var out []*ast.Ident
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if name.Name != "_" {
					out = append(out, name)
				}
			}
		}
	}
	add(recv)
	if typ != nil {
		add(typ.Params)
		add(typ.Results)
	}
	return out
}

// NewReachingDefs builds and solves reaching definitions for one
// function body over its CFG. params are the entry definitions (see
// ParamIdents); body is the same block the CFG was built from and is
// only consulted to locate range-clause bindings, which the CFG keeps
// out of block nodes. The function tolerates partial type information
// (identifiers without Defs/Uses entries are simply not tracked), so it
// is safe on permissively type-checked code.
func NewReachingDefs(cfg *CFG, info *types.Info, params []*ast.Ident, body *ast.BlockStmt) *ReachingDefs {
	r := &ReachingDefs{
		byObj: make(map[types.Object][]int),
		uses:  make(map[*ast.Ident]*BitSet),
	}

	// Pass 1: enumerate definition sites in deterministic order. Entry
	// definitions first, then per-block statement definitions, then the
	// range-clause bindings attached to the block holding the range
	// operand.
	addDef := func(obj types.Object, node ast.Node, pos token.Pos, entry bool) *Def {
		d := &Def{ID: len(r.Defs), Obj: obj, Node: node, Pos: pos, Entry: entry}
		r.Defs = append(r.Defs, d)
		r.byObj[obj] = append(r.byObj[obj], d.ID)
		return d
	}
	for _, id := range params {
		if obj := info.Defs[id]; obj != nil {
			addDef(obj, nil, id.Pos(), true)
		}
	}

	// tracked reports whether obj is a local variable of this function —
	// the only objects whose plain (`=`) assignments count as
	// definitions. Anything first seen through info.Defs inside the body
	// or the params is local.
	local := make(map[types.Object]bool)
	for _, d := range r.Defs {
		local[d.Obj] = true
	}
	collectLocals := func(n ast.Node) {
		WalkNodes(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					if _, isVar := obj.(*types.Var); isVar {
						local[obj] = true
					}
				}
			}
			return true
		})
	}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			collectLocals(n)
		}
	}
	// Range Key/Value bindings live on the RangeStmt, whose only block
	// node is the range operand expression — collect them too.
	WalkNodes(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if rs.Key != nil {
				collectLocals(rs.Key)
			}
			if rs.Value != nil {
				collectLocals(rs.Value)
			}
		}
		return true
	})

	// defObj resolves a defining identifier occurrence to its tracked
	// object: a := / var / range-define binds through info.Defs, a plain
	// `=` writes through info.Uses and only counts for locals.
	defObj := func(id *ast.Ident) types.Object {
		if id == nil || id.Name == "_" {
			return nil
		}
		if obj := info.Defs[id]; obj != nil && local[obj] {
			return obj
		}
		if obj := info.Uses[id]; obj != nil && local[obj] {
			return obj
		}
		return nil
	}

	// defsIn yields the definitions a single CFG node makes, in
	// execution order, without descending into nested function literals.
	defsIn := func(node ast.Node, yield func(obj types.Object, at ast.Node, pos token.Pos)) {
		WalkNodes(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := defObj(id); obj != nil {
							yield(obj, n, id.Pos())
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj := defObj(id); obj != nil {
						yield(obj, n, id.Pos())
					}
				}
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok {
					return true
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if obj := defObj(name); obj != nil {
							yield(obj, n, name.Pos())
						}
					}
				}
			}
			return true
		})
	}

	// Definition sites per block node, plus range bindings mapped to the
	// block holding the range operand.
	nodeDefs := make(map[ast.Node][]*Def)
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			defsIn(n, func(obj types.Object, at ast.Node, pos token.Pos) {
				nodeDefs[n] = append(nodeDefs[n], addDef(obj, at, pos, false))
			})
		}
	}
	nodeHasRange := make(map[ast.Node]*ast.RangeStmt)
	WalkNodes(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			nodeHasRange[rs.X] = rs
		}
		return true
	})
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			rs, ok := nodeHasRange[n]
			if !ok {
				continue
			}
			for _, e := range []ast.Expr{rs.Key, rs.Value} {
				if e == nil {
					continue
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if obj := defObj(id); obj != nil {
						nodeDefs[n] = append(nodeDefs[n], addDef(obj, rs, id.Pos(), false))
					}
				}
			}
		}
	}

	nbits := len(r.Defs)
	if nbits == 0 {
		return r
	}

	// gen applies the definitions of one node to state: each kills every
	// other definition of the same object, then asserts itself.
	gen := func(state *BitSet, defs []*Def) {
		for _, d := range defs {
			for _, other := range r.byObj[d.Obj] {
				state.Clear(other)
			}
			state.Set(d.ID)
		}
	}

	entry := NewBitSet(nbits)
	for _, d := range r.Defs {
		if d.Entry {
			entry.Set(d.ID)
		}
	}

	// Worklist fixpoint, mirroring CFG.Solve but over BitSet states. The
	// lattice is finite (2^nbits) and the transfer monotone, so the loop
	// terminates.
	in := make(map[*Block]*BitSet, len(cfg.Blocks))
	seen := make(map[*Block]bool, len(cfg.Blocks))
	in[cfg.Blocks[0]] = entry
	seen[cfg.Blocks[0]] = true
	trans := func(b *Block, st *BitSet) *BitSet {
		out := st.Clone()
		for _, n := range b.Nodes {
			gen(out, nodeDefs[n])
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			if !seen[blk] {
				continue
			}
			out := trans(blk, in[blk])
			for _, succ := range blk.Succs {
				if in[succ] == nil {
					in[succ] = NewBitSet(nbits)
				}
				if in[succ].Union(out) || !seen[succ] {
					seen[succ] = true
					changed = true
				}
			}
		}
	}

	// Final replay: walk each block once more with the solved entry
	// state, recording the reach set of every use occurrence. Within a
	// node, right-hand sides are replayed before the definitions they
	// feed (Go evaluates RHS first), so `x = x + 1` sees the old x.
	for _, b := range cfg.Blocks {
		st, ok := in[b]
		if !ok {
			continue // unreachable block
		}
		state := st.Clone()
		for _, n := range b.Nodes {
			defIdents := make(map[*ast.Ident]bool)
			WalkNodes(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt:
					if m.Tok == token.DEFINE {
						for _, lhs := range m.Lhs {
							if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
								defIdents[id] = true
							}
						}
					} else {
						// Plain assignment: a bare-identifier LHS is a write,
						// not a read (compound `+=` both reads and writes, and
						// the read is what reaching-defs answers for).
						for _, lhs := range m.Lhs {
							if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && m.Tok == token.ASSIGN {
								defIdents[id] = true
							}
						}
					}
				case *ast.DeclStmt:
					WalkNodes(m, func(k ast.Node) bool {
						if vs, ok := k.(*ast.ValueSpec); ok {
							for _, name := range vs.Names {
								defIdents[name] = true
							}
						}
						return true
					})
				case *ast.RangeStmt:
					for _, e := range []ast.Expr{m.Key, m.Value} {
						if id, ok := ast.Unparen(e).(*ast.Ident); ok {
							defIdents[id] = true
						}
					}
				}
				return true
			})
			WalkNodes(n, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok || defIdents[id] {
					return true
				}
				obj := info.Uses[id]
				if obj == nil || len(r.byObj[obj]) == 0 {
					return true
				}
				reach := NewBitSet(nbits)
				for _, did := range r.byObj[obj] {
					if state.Has(did) {
						reach.Set(did)
					}
				}
				r.uses[id] = reach
				return true
			})
			gen(state, nodeDefs[n])
		}
	}
	return r
}

// At returns the definitions that may reach the given use occurrence,
// in definition order, or nil when the identifier is not a tracked use.
func (r *ReachingDefs) At(use *ast.Ident) []*Def {
	set := r.uses[use]
	if set == nil {
		return nil
	}
	var out []*Def
	for _, d := range r.Defs {
		if set.Has(d.ID) {
			out = append(out, d)
		}
	}
	return out
}
