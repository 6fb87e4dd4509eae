package uop

import "testing"

func TestEmitterDependencyWiring(t *testing.T) {
	e := NewEmitter()
	e.Reset()
	a := e.ALU(NoDep, NoDep)
	l := e.Load(0x1000, a)
	s := e.Store(0x2000, l, a)
	tr := e.Trace()
	if len(tr.Ops) != 3 {
		t.Fatalf("emitted %d ops", len(tr.Ops))
	}
	if tr.Ops[l].Dep1 != a {
		t.Errorf("load addr dep = %d, want %d", tr.Ops[l].Dep1, a)
	}
	if tr.Ops[s].Dep1 != l || tr.Ops[s].Dep2 != a {
		t.Errorf("store deps = %d,%d", tr.Ops[s].Dep1, tr.Ops[s].Dep2)
	}
}

func TestMallaccOrderingChain(t *testing.T) {
	// The three linked-list instructions must be ordered among themselves
	// via the architecturally invisible register (Sec. 4.1).
	e := NewEmitter()
	e.Reset()
	p1 := e.Mallacc(McHdPop, 0, true, 0, NoDep, 0)
	pf := e.Mallacc(McNxtPrefetch, 0, true, 0x3000, NoDep, 0)
	p2 := e.Mallacc(McHdPush, 0, true, 0, NoDep, 0)
	tr := e.Trace()
	if tr.Ops[pf].Dep2 != p1 {
		t.Errorf("prefetch not ordered after pop: dep2=%d", tr.Ops[pf].Dep2)
	}
	if tr.Ops[p2].Dep2 != pf {
		t.Errorf("push not ordered after prefetch: dep2=%d", tr.Ops[p2].Dep2)
	}
	// mcszlookup/update do not participate in the list ordering.
	e.Reset()
	e.Mallacc(McSzLookup, 0, true, 0, NoDep, 0)
	pop := e.Mallacc(McHdPop, 0, true, 0, NoDep, 0)
	if e.Trace().Ops[pop].Dep2 != NoDep {
		t.Error("pop should not depend on lookup through the list ordering")
	}
}

func TestMallaccRejectsWrongKind(t *testing.T) {
	e := NewEmitter()
	defer func() {
		if recover() == nil {
			t.Fatal("Mallacc(ALU) did not panic")
		}
	}()
	e.Mallacc(ALU, 0, false, 0, NoDep, 0)
}

func TestStepTaggingAndCount(t *testing.T) {
	e := NewEmitter()
	e.Reset()
	e.Step(StepSizeClass)
	e.ALU(NoDep, NoDep)
	e.Load(0x10, NoDep)
	prev := e.Step(StepPushPop)
	if prev != StepSizeClass {
		t.Errorf("Step returned %v, want sizeclass", prev)
	}
	e.Store(0x20, NoDep, NoDep)
	e.Step(StepOther)
	e.Branch(1, true, NoDep)
	var counts [NumSteps]int
	for _, op := range e.Trace().Ops {
		counts[op.Step]++
	}
	if counts[StepSizeClass] != 2 || counts[StepPushPop] != 1 || counts[StepOther] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestALUChain(t *testing.T) {
	e := NewEmitter()
	e.Reset()
	seed := e.ALU(NoDep, NoDep)
	last := e.ALUChain(3, seed)
	tr := e.Trace()
	if len(tr.Ops) != 4 {
		t.Fatalf("chain emitted %d ops", len(tr.Ops))
	}
	// Each chain op depends on the previous.
	for i := 1; i < 4; i++ {
		if tr.Ops[i].Dep1 != Val(i-1) {
			t.Errorf("chain op %d dep %d", i, tr.Ops[i].Dep1)
		}
	}
	if last != 3 {
		t.Errorf("last = %d", last)
	}
}

func TestKindPredicates(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		wantMallacc := k >= McSzLookup && k <= McNxtPrefetch
		if k.IsMallacc() != wantMallacc {
			t.Errorf("%v.IsMallacc() = %v", k, k.IsMallacc())
		}
	}
	for _, k := range []Kind{Load, Store, McNxtPrefetch} {
		if !k.IsMemory() {
			t.Errorf("%v should be memory", k)
		}
	}
	for _, k := range []Kind{ALU, Branch, McHdPop, Nop} {
		if k.IsMemory() {
			t.Errorf("%v should not be memory", k)
		}
	}
	if ALU.String() != "alu" || McNxtPrefetch.String() != "mcnxtprefetch" {
		t.Error("kind names wrong")
	}
}

func TestResetClearsState(t *testing.T) {
	e := NewEmitter()
	e.Reset()
	e.Mallacc(McHdPop, 0, true, 0, NoDep, 0)
	e.Reset()
	pf := e.Mallacc(McNxtPrefetch, 0, true, 0x30, NoDep, 0)
	if e.Trace().Ops[pf].Dep2 != NoDep {
		t.Error("Mallacc ordering leaked across Reset")
	}
}
