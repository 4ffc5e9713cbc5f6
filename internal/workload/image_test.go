package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"boomsim/internal/isa"
	"boomsim/internal/program"
)

// builtinProfiles is every profile the simulator ships: the six Table II
// workloads plus the SPEC-like control.
func builtinProfiles() []Profile { return append(append([]Profile(nil), Profiles...), SPECLike()) }

// imageDigest hashes everything generation decides: every block and its
// terminator, every function, and the segment limit.
func imageDigest(img *program.Image) string {
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for i := range img.Blocks {
		b := &img.Blocks[i]
		u64(uint64(b.Addr))
		u64(uint64(b.NInstr))
		u64(uint64(b.Func))
		t := &b.Term
		u64(uint64(t.Kind))
		u64(uint64(t.Target))
		u64(uint64(t.Behaviour))
		u64(math.Float64bits(t.Bias))
		u64(uint64(t.Trip))
		u64(uint64(t.Phase))
		u64(uint64(len(t.Targets)))
		for _, a := range t.Targets {
			u64(uint64(a))
		}
		h.Write(buf)
		buf = buf[:0]
	}
	for _, f := range img.Functions {
		u64(uint64(f.Entry))
		u64(uint64(f.FirstBlock))
		u64(uint64(f.NBlocks))
		u64(uint64(f.Module))
	}
	u64(uint64(img.Limit))
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestImageDigestsPinned pins the exact images every built-in profile
// generates at full footprint. Generator optimisations (presizing, index
// structures) must not move a single block.
func TestImageDigestsPinned(t *testing.T) {
	want := map[string][2]string{
		"Nutch":     {"4a2da9012770c0335ab75f5fe28991414962d5538297411d0e5da95c727e886e", "bfdcd779446bafd82418965d5383bc9758afdf4b5070a291724fbb9d3ac2bcd2"},
		"Streaming": {"babb1f3aba8dd1a9619c54ec0577e77ed0d89adbd6c975ef0c3edffd6bd00bdd", "8c3e6de2e3f909632ce2e9dee6d00d7eb5ab8fd8e91070099014ed3e48114b14"},
		"Apache":    {"3707c3c167b0dc182d227ad307c2549e7a597b344a66fdc8a17735a1e37db37f", "58778b83fb3745982b36d744cf52ad6034468560184b4a1cb8ee2419680050be"},
		"Zeus":      {"b6aa87acff139feed8d8d68275198b29c24a2c18644fbc6545af1cdb485deb1b", "94b4398a240deaa18620ba935f204f3ae37fd7703ca2c28742f1973e117e7760"},
		"Oracle":    {"6bae73705313011174b90403abfa7dcb2998f324aac45394db507c16017f3a93", "89e9f9b1faaa504f4e2a75dd28e004ba5daf40af2d63ec364ea7c3120874295b"},
		"DB2":       {"2bd4670599579b79dadd3d17f131945243dc1bd64ed1d3a076f7b701bb6f369a", "ac32184c912bb8434c293ff9e7cf0c011a42acef10c4b5babe290a2d620a7f22"},
		"SPEC-like": {"0131e0e6ceb22df67052d299bb52075999fc99d6f09182ea766126eebbe04eb0", "9a2f131f1d4ea923184f01b45819f0c086735b484360ea06a017939af4a1459a"},
	}
	for _, p := range builtinProfiles() {
		for seed := uint64(1); seed <= 2; seed++ {
			img, err := p.Image(seed)
			if err != nil {
				t.Fatal(err)
			}
			got := imageDigest(img)
			if w := want[p.Name][seed-1]; got != w {
				t.Errorf("%s seed %d: image digest %s, want %s", p.Name, seed, got, w)
			}
		}
	}
}

// TestImageIndexEquivalence checks every image lookup against a brute-force
// reference built straight from Blocks, at every instruction slot of the
// text segment (plus a line of margin on each side) and at misaligned PCs.
func TestImageIndexEquivalence(t *testing.T) {
	type gen struct {
		name string
		p    program.GenParams
	}
	var gens []gen
	for _, p := range builtinProfiles() {
		g := p.Gen
		g.Seed = 3
		g.FootprintKB = 256
		gens = append(gens, gen{p.Name, g})
	}
	gens = append(gens, gen{"default", program.DefaultGenParams()})
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			checkIndex(t, program.MustGenerate(g.p))
		})
	}
}

func checkIndex(t *testing.T, img *program.Image) {
	// Reference tables: the block covering each slot, and the branches of
	// each cache line in address order.
	lo := img.Base - isa.BlockBytes
	hi := img.Limit + isa.BlockBytes
	covering := make(map[isa.Addr]int, (hi-lo)/isa.InstrBytes)
	starts := make(map[isa.Addr]int, len(img.Blocks))
	lines := map[isa.Addr][]program.PredecodedBranch{}
	for i := range img.Blocks {
		b := &img.Blocks[i]
		starts[b.Addr] = i
		for pc := b.Addr; pc < b.FallThrough(); pc += isa.InstrBytes {
			covering[pc] = i
		}
		var target isa.Addr
		switch b.Term.Kind {
		case isa.CondDirect, isa.UncondDirect, isa.CallDirect:
			target = b.Term.Target
		}
		line := isa.BlockAddr(b.BranchPC())
		lines[line] = append(lines[line], program.PredecodedBranch{
			PC: b.BranchPC(), BlockStart: b.Addr, NInstr: b.NInstr, Kind: b.Term.Kind, Target: target,
		})
	}

	var scratch []program.PredecodedBranch
	for slot := lo; slot < hi; slot += isa.InstrBytes {
		for off := isa.Addr(0); off < isa.InstrBytes; off++ {
			pc := slot + off

			wantStart, isStart := starts[pc]
			gi, ok := img.BlockIndex(pc)
			if ok != isStart || (ok && int(gi) != wantStart) {
				t.Fatalf("BlockIndex(%#x) = %d,%v; want %d,%v", pc, gi, ok, wantStart, isStart)
			}
			gb, ok := img.BlockAt(pc)
			if ok != isStart || (ok && gb != &img.Blocks[wantStart]) {
				t.Fatalf("BlockAt(%#x) ok=%v; want block %d,%v", pc, ok, wantStart, isStart)
			}

			wantCover, covered := covering[slot]
			gb, ok = img.BlockContaining(pc)
			if ok != covered || (ok && gb != &img.Blocks[wantCover]) {
				t.Fatalf("BlockContaining(%#x) ok=%v; want block %d,%v", pc, ok, wantCover, covered)
			}

			inLine := lines[isa.BlockAddr(pc)]
			scratch = img.AppendBranchesInLine(scratch[:0], pc)
			if len(scratch) != len(inLine) {
				t.Fatalf("AppendBranchesInLine(%#x): %d branches, want %d", pc, len(scratch), len(inLine))
			}
			for i := range inLine {
				if scratch[i] != inLine[i] {
					t.Fatalf("AppendBranchesInLine(%#x)[%d] = %+v, want %+v", pc, i, scratch[i], inLine[i])
				}
			}

			var want program.PredecodedBranch
			found := false
			for _, br := range inLine {
				if br.PC >= pc {
					want, found = br, true
					break
				}
			}
			got, ok := img.FirstBranchAtOrAfter(pc)
			if ok != found || got != want {
				t.Fatalf("FirstBranchAtOrAfter(%#x) = %+v,%v; want %+v,%v", pc, got, ok, want, found)
			}
		}
	}
}
