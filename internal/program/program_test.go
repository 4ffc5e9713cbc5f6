package program

import (
	"reflect"
	"testing"
	"testing/quick"

	"boomsim/internal/isa"
)

func smallParams(seed uint64) GenParams {
	p := DefaultGenParams()
	p.Seed = seed
	p.FootprintKB = 128
	p.Layers = 4
	return p
}

func TestGenerateValid(t *testing.T) {
	img := MustGenerate(smallParams(1))
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallParams(5))
	b := MustGenerate(smallParams(5))
	if len(a.Blocks) != len(b.Blocks) || len(a.Functions) != len(b.Functions) {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Blocks {
		x, y := a.Blocks[i], b.Blocks[i]
		if x.Addr != y.Addr || x.NInstr != y.NInstr || x.Term.Kind != y.Term.Kind ||
			x.Term.Target != y.Term.Target {
			t.Fatalf("block %d differs between identical seeds", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(smallParams(1))
	b := MustGenerate(smallParams(2))
	if len(a.Blocks) == len(b.Blocks) {
		same := true
		for i := range a.Blocks {
			if a.Blocks[i].Term.Target != b.Blocks[i].Term.Target {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical images")
		}
	}
}

func TestFootprintNearTarget(t *testing.T) {
	p := smallParams(3)
	p.FootprintKB = 512
	img := MustGenerate(p)
	kb := img.Bytes() / 1024
	if kb < 450 || kb > 650 {
		t.Errorf("footprint %d KB, want ~512 KB", kb)
	}
}

func TestBlockLookup(t *testing.T) {
	img := MustGenerate(smallParams(7))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		got, ok := img.BlockAt(b.Addr)
		if !ok || got != b {
			t.Fatalf("BlockAt(%#x) failed", b.Addr)
		}
		mid := b.Addr + isa.Addr(b.NInstr/2)*isa.InstrBytes
		got, ok = img.BlockContaining(mid)
		if !ok || got != b {
			t.Fatalf("BlockContaining(%#x) failed for block %#x", mid, b.Addr)
		}
	}
}

func TestBlockContainingMisses(t *testing.T) {
	img := MustGenerate(smallParams(7))
	if _, ok := img.BlockContaining(img.Base - 4); ok {
		t.Error("found block below base")
	}
	if _, ok := img.BlockContaining(img.Limit + 1024); ok {
		t.Error("found block above limit")
	}
}

func TestBranchPCWithinBlock(t *testing.T) {
	img := MustGenerate(smallParams(9))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		pc := b.BranchPC()
		if pc < b.Addr || pc >= b.FallThrough() {
			t.Fatalf("branch PC %#x outside block [%#x,%#x)", pc, b.Addr, b.FallThrough())
		}
	}
}

func TestBranchesInLineComplete(t *testing.T) {
	img := MustGenerate(smallParams(11))
	// Every block's terminator must be discoverable by predecoding the line
	// holding its branch PC.
	for i := range img.Blocks {
		b := &img.Blocks[i]
		line := isa.BlockAddr(b.BranchPC())
		found := false
		for _, br := range img.BranchesInLine(line) {
			if br.PC == b.BranchPC() {
				found = true
				if br.BlockStart != b.Addr || br.NInstr != b.NInstr || br.Kind != b.Term.Kind {
					t.Fatalf("predecode mismatch at %#x", br.PC)
				}
			}
		}
		if !found {
			t.Fatalf("terminator of block %#x not predecoded from line %#x", b.Addr, line)
		}
	}
}

func TestBranchesInLineOrderedAndBounded(t *testing.T) {
	img := MustGenerate(smallParams(13))
	for line := isa.BlockAddr(img.Base); line < img.Limit; line += isa.BlockBytes {
		brs := img.BranchesInLine(line)
		for i, br := range brs {
			if br.PC < line || br.PC >= line+isa.BlockBytes {
				t.Fatalf("branch %#x outside its line %#x", br.PC, line)
			}
			if i > 0 && brs[i-1].PC >= br.PC {
				t.Fatalf("branches in line %#x not strictly ordered", line)
			}
		}
	}
}

func TestPredecodeHidesIndirectTargets(t *testing.T) {
	img := MustGenerate(smallParams(15))
	sawIndirect := false
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if !b.Term.Kind.IsIndirect() {
			continue
		}
		sawIndirect = true
		br, ok := img.FirstBranchAtOrAfter(b.BranchPC())
		if !ok || br.PC != b.BranchPC() {
			t.Fatalf("FirstBranchAtOrAfter missed terminator of %#x", b.Addr)
		}
		if br.Target != 0 {
			t.Fatalf("predecode leaked an indirect target at %#x", br.PC)
		}
	}
	if !sawIndirect {
		t.Skip("no indirect branches generated at this size")
	}
}

func TestFirstBranchAtOrAfter(t *testing.T) {
	img := MustGenerate(smallParams(17))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		br, ok := img.FirstBranchAtOrAfter(b.Addr)
		if isa.BlockAddr(b.Addr) != isa.BlockAddr(b.BranchPC()) {
			// The terminator is in a later line; the query may legitimately
			// return a different (earlier-in-line) result or nothing.
			continue
		}
		if !ok {
			t.Fatalf("no branch found at/after %#x within its line", b.Addr)
		}
		if br.PC < b.Addr {
			t.Fatalf("branch %#x precedes query %#x", br.PC, b.Addr)
		}
	}
}

func TestCallLayering(t *testing.T) {
	img := MustGenerate(smallParams(19))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if b.Term.Kind != isa.CallDirect && b.Term.Kind != isa.IndirectCall {
			continue
		}
		caller := img.FunctionOf(b)
		targets := b.Term.Targets
		if b.Term.Kind == isa.CallDirect {
			targets = []isa.Addr{b.Term.Target}
		}
		for _, tgt := range targets {
			cb, ok := img.BlockAt(tgt)
			if !ok {
				t.Fatalf("call target %#x not a block", tgt)
			}
			callee := img.FunctionOf(cb)
			if callee.Entry != tgt {
				t.Fatalf("call target %#x is not a function entry", tgt)
			}
			if callee.Module < caller.Module {
				t.Fatalf("call from layer %d up to layer %d violates DAG",
					caller.Module, callee.Module)
			}
		}
	}
}

func TestNoRecursionWithinLayer(t *testing.T) {
	// Within-layer calls may only target the helper region, and helpers must
	// not call within-layer, so within-layer call chains have depth <= 1.
	img := MustGenerate(smallParams(21))
	type funcPos struct{ layer, pos, layerSize int }
	pos := make(map[isa.Addr]funcPos)
	perLayer := map[int][]int32{}
	for fi := range img.Functions {
		f := &img.Functions[fi]
		perLayer[f.Module] = append(perLayer[f.Module], int32(fi))
	}
	for l, fns := range perLayer {
		for i, fi := range fns {
			pos[img.Functions[fi].Entry] = funcPos{l, i, len(fns)}
		}
	}
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if !b.Term.Kind.IsCall() {
			continue
		}
		caller := img.FunctionOf(b)
		targets := b.Term.Targets
		if b.Term.Kind == isa.CallDirect {
			targets = []isa.Addr{b.Term.Target}
		}
		for _, tgt := range targets {
			fp := pos[tgt]
			if fp.layer != caller.Module {
				continue
			}
			if fp.pos < fp.layerSize*3/4 {
				t.Fatalf("within-layer call to non-helper function at %#x", tgt)
			}
			callerPos := pos[caller.Entry]
			if callerPos.pos >= callerPos.layerSize*3/4 {
				t.Fatalf("helper at %#x makes a within-layer call", caller.Entry)
			}
		}
	}
}

func TestRootLoopsForever(t *testing.T) {
	img := MustGenerate(smallParams(23))
	root := &img.Functions[0]
	lastBlock := &img.Blocks[root.FirstBlock+root.NBlocks-1]
	if lastBlock.Term.Kind != isa.UncondDirect || lastBlock.Term.Target != root.Entry {
		t.Fatal("root's final block must jump back to its entry")
	}
}

func TestLoopTripsBounded(t *testing.T) {
	p := smallParams(25)
	img := MustGenerate(p)
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if b.Term.Behaviour != BehaviourLoop {
			continue
		}
		if b.Term.Trip < 2 || int(b.Term.Trip) > p.LoopTripMax {
			t.Fatalf("loop trip %d out of [2,%d]", b.Term.Trip, p.LoopTripMax)
		}
		if b.Term.Target > b.Addr {
			t.Fatalf("loop back-edge at %#x targets forward %#x", b.Addr, b.Term.Target)
		}
	}
}

func TestBiasesInRange(t *testing.T) {
	img := MustGenerate(smallParams(27))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if b.Term.Behaviour != BehaviourBias {
			continue
		}
		if b.Term.Bias <= 0 || b.Term.Bias >= 1 {
			t.Fatalf("bias %v out of (0,1)", b.Term.Bias)
		}
	}
}

func TestComputeStats(t *testing.T) {
	img := MustGenerate(smallParams(29))
	s := img.ComputeStats()
	if s.Functions != len(img.Functions) || s.Blocks != len(img.Blocks) {
		t.Error("stats counts wrong")
	}
	if s.MeanBlock < 2 || s.MeanBlock > 15 {
		t.Errorf("mean block size %v implausible", s.MeanBlock)
	}
	if s.ByKind[isa.None] != 0 {
		t.Error("blocks without terminators counted")
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*GenParams){
		func(p *GenParams) { p.Layers = 0 },
		func(p *GenParams) { p.FootprintKB = 1 },
		func(p *GenParams) { p.MeanBlockInstrs = 1 },
		func(p *GenParams) { p.MeanFuncBlocks = 2 },
		func(p *GenParams) { p.PCall = 0.95 },
		func(p *GenParams) { p.LoopFrac = 1.5 },
		func(p *GenParams) { p.LoopTripMax = 1 },
		func(p *GenParams) { p.CondSkipMax = 0 },
		func(p *GenParams) { p.BiasMix = nil },
		func(p *GenParams) { p.IndFanout = 0 },
		func(p *GenParams) { p.PhaseLen = 0 },
	}
	for i, mutate := range bad {
		p := DefaultGenParams()
		mutate(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBlockGeometryProperty(t *testing.T) {
	img := MustGenerate(smallParams(31))
	n := len(img.Blocks)
	if err := quick.Check(func(raw uint32) bool {
		b := &img.Blocks[int(raw)%n]
		return b.FallThrough()-b.Addr == isa.Addr(b.NInstr)*isa.InstrBytes &&
			b.BranchPC() == b.FallThrough()-isa.InstrBytes
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate2MB(b *testing.B) { benchGenerate(b, DefaultGenParams()) }

// BenchmarkGenerate5MB generates a DB2-shaped image: the largest-but-one
// built-in footprint, with the shortest blocks and deepest layering.
func BenchmarkGenerate5MB(b *testing.B) {
	p := DefaultGenParams()
	p.FootprintKB = 5120
	p.Layers = 10
	p.DispatchFanout = 20
	p.MeanBlockInstrs = 4
	p.IndFanout = 6
	benchGenerate(b, p)
}

func benchGenerate(b *testing.B, p GenParams) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchesInLine(b *testing.B) {
	img := MustGenerate(smallParams(33))
	lines := int((img.Limit - img.Base) / isa.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := img.Base + isa.Addr(i%lines)*isa.BlockBytes
		_ = img.BranchesInLine(line)
	}
}

func TestGenerateMinimalParams(t *testing.T) {
	// The smallest legal configuration must still produce a valid,
	// executable image (single service layer, minimum footprint).
	p := DefaultGenParams()
	p.Layers = 1
	p.FootprintKB = 16
	p.DispatchFanout = 1
	img, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Functions) < 2 {
		t.Fatal("need at least root + one service function")
	}
}

func TestGenerateNoCallsStillTerminates(t *testing.T) {
	// With call probability zero the image degenerates to the dispatcher
	// plus leaf services; generation and validation must still succeed.
	p := DefaultGenParams()
	p.FootprintKB = 64
	p.Layers = 2
	p.PCall = 0
	img, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionEntriesAligned(t *testing.T) {
	img := MustGenerate(smallParams(41))
	for _, f := range img.Functions {
		if f.Entry%16 != 0 {
			t.Fatalf("function entry %#x not 16-byte aligned", f.Entry)
		}
	}
}

// TestFrozenWalkerClone: a clone of a frozen walker steps exactly like a
// clone of the same walker taken before freezing, and the frozen form keeps
// only the nonzero occurrence counters.
func TestFrozenWalkerClone(t *testing.T) {
	img := MustGenerate(smallParams(3))
	w := NewWalker(img, 11)
	for i := 0; i < 5_000; i++ {
		w.Next()
	}
	dense := w.Clone()
	w.Freeze()
	if w.occ != nil {
		t.Fatal("frozen walker kept its dense counters")
	}
	for _, e := range w.frozen {
		if e.n == 0 || dense.occ[e.block] != e.n {
			t.Fatalf("frozen counter %+v does not match the dense walker", e)
		}
	}
	fork := w.Clone()
	if !reflect.DeepEqual(fork, dense) {
		t.Fatal("clone of the frozen walker differs from the dense walker")
	}
	for i := 0; i < 5_000; i++ {
		a, b := fork.Next(), dense.Next()
		if a.Block != b.Block || a.Taken != b.Taken || a.Target != b.Target || a.EntryClass != b.EntryClass {
			t.Fatalf("step %d: fork %+v, dense %+v", i, a, b)
		}
	}
}
