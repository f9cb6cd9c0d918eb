package gen

import (
	"math/rand"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
)

func TestAllFamiliesValidate(t *testing.T) {
	specs := []Spec{
		{Family: Rocket, Cores: 1, Scale: 8},
		{Family: Rocket, Cores: 4, Scale: 8},
		{Family: Boom, Cores: 1, Scale: 8},
		{Family: Gemmini, Cores: 8, Scale: 4},
		{Family: SHA3, Scale: 4},
		{Family: Ctrl, Cores: 256, Scale: 4},
	}
	for _, s := range specs {
		g, err := Generate(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(g.Regs) == 0 || g.ComputeStats().Ops == 0 {
			t.Fatalf("%s: degenerate design", s.Name())
		}
	}
}

func TestNamesAndCycles(t *testing.T) {
	if (Spec{Family: Rocket, Cores: 8}).Name() != "r8" {
		t.Error("rocket name")
	}
	if (Spec{Family: Boom, Cores: 12}).Name() != "s12" {
		t.Error("boom name")
	}
	if (Spec{Family: Gemmini, Cores: 16}).Name() != "g16" {
		t.Error("gemmini name")
	}
	if (Spec{Family: SHA3}).Name() != "sha3" {
		t.Error("sha3 name")
	}
	if (Spec{Family: Ctrl, Cores: 2048}).Name() != "c2048" {
		t.Error("ctrl name")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	s := Spec{Family: Rocket, Cores: 2, Scale: 8}
	g1, _ := Generate(s)
	g2, _ := Generate(s)
	if g1.NumNodes() != g2.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", g1.NumNodes(), g2.NumNodes())
	}
	st1, st2 := g1.ComputeStats(), g2.ComputeStats()
	if st1.TotalEdges != st2.TotalEdges {
		t.Fatal("edge counts differ")
	}
}

// TestTable1Calibration checks the generators against the paper's Table 1
// operation accounting within tolerance: effectual ops within 10%, and the
// identity:effectual ratio of the right magnitude (the paper's ratios are
// 6.9x for rocket-1c, 9.5x small-1c, 6.9x rocket-8c, 10.6x small-8c).
func TestTable1Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration builds full-size designs")
	}
	cases := []struct {
		spec          Spec
		wantEffectual int64
		wantIdentity  int64
	}{
		{Spec{Family: Rocket, Cores: 1, Scale: 1}, 60_000, 414_000},
		{Spec{Family: Boom, Cores: 1, Scale: 1}, 94_000, 891_000},
		{Spec{Family: Rocket, Cores: 8, Scale: 1}, 139_000, 957_000},
		{Spec{Family: Boom, Cores: 8, Scale: 1}, 281_000, 2_992_000},
	}
	for _, c := range cases {
		g, err := Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		lv, err := dfg.Levelize(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !within(lv.EffectualOps, c.wantEffectual, 0.12) {
			t.Errorf("%s: effectual = %d, want ~%d", c.spec.Name(), lv.EffectualOps, c.wantEffectual)
		}
		ratio := float64(lv.IdentityOps) / float64(lv.EffectualOps)
		wantRatio := float64(c.wantIdentity) / float64(c.wantEffectual)
		if ratio < wantRatio*0.5 || ratio > wantRatio*2.0 {
			t.Errorf("%s: identity ratio = %.1fx, want ~%.1fx (identity=%d)",
				c.spec.Name(), ratio, wantRatio, lv.IdentityOps)
		}
	}
}

func within(got, want int64, tol float64) bool {
	d := float64(got) - float64(want)
	if d < 0 {
		d = -d
	}
	return d <= tol*float64(want)
}

// TestMACGridComputesMatmul validates the Gemmini mesh functionally: stream
// a vector of A and B values through and confirm acc[0][0] accumulates
// sum(a_k * b_k) like a real output-stationary systolic PE.
func TestMACGridComputesMatmul(t *testing.T) {
	g := &dfg.Graph{Name: "mesh"}
	addMACGrid(g, 4, 8, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	as := make([]uint64, 6)
	bs := make([]uint64, 6)
	var want uint64
	for i := range as {
		as[i] = uint64(rng.Intn(100))
		bs[i] = uint64(rng.Intn(100))
		want += as[i] * bs[i]
	}
	// Feed a_0 and b_0 streams; PE (0,0) sees them one cycle delayed.
	for i := 0; i < len(as)+1; i++ {
		if i < len(as) {
			it.PokeInputName("mesh_a_0", as[i])
			it.PokeInputName("mesh_b_0", bs[i])
		} else {
			it.PokeInputName("mesh_a_0", 0)
			it.PokeInputName("mesh_b_0", 0)
		}
		it.Step()
	}
	it.Step() // final product lands one cycle later
	// acc[0][0] is the first exported diagonal output.
	var accVal uint64
	for i, p := range g.Outputs {
		if p.Name == "mesh_acc_0_0" {
			accVal = it.RegSnapshot()[0] // placeholder; use node value
			accVal = it.Peek(g.Outputs[i].Node)
		}
	}
	if accVal != want {
		t.Fatalf("acc[0][0] = %d, want %d", accVal, want)
	}
	// Clearing zeroes the accumulators.
	it.PokeInputName("mesh_clear", 1)
	it.Step()
	for _, p := range g.Outputs {
		if p.Name == "mesh_acc_0_0" && it.Peek(p.Node) != 0 {
			t.Fatal("clear did not reset accumulator")
		}
	}
}

// keccakF is a software Keccak-f[1600] used to validate the generated
// permutation circuit.
func keccakF(st *[25]uint64) {
	rotl := func(x uint64, n int) uint64 {
		if n == 0 {
			return x
		}
		return x<<uint(n) | x>>uint(64-n)
	}
	for round := 0; round < 24; round++ {
		var c [5]uint64
		for x := 0; x < 5; x++ {
			c[x] = st[x] ^ st[x+5] ^ st[x+10] ^ st[x+15] ^ st[x+20]
		}
		var d [5]uint64
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl(c[(x+1)%5], 1)
		}
		var tmp [25]uint64
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				tmp[x+5*y] = st[x+5*y] ^ d[x]
			}
		}
		var b [25]uint64
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = rotl(tmp[x+5*y], keccakRot[x][y])
			}
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				st[x+5*y] = b[x+5*y] ^ (^b[(x+1)%5+5*y] & b[(x+2)%5+5*y])
			}
		}
		st[0] ^= keccakRC[round]
	}
}

// TestKeccakMatchesSoftware runs the generated SHA3 circuit for a few
// permutations and compares every exported lane with the software Keccak.
func TestKeccakMatchesSoftware(t *testing.T) {
	g := &dfg.Graph{Name: "keccak"}
	addKeccak(g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	it, err := dfg.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var ref [25]uint64
	// Absorb a random state.
	it.PokeInputName("sha_absorb", 1)
	for i := 0; i < 25; i++ {
		ref[i] = rng.Uint64()
		it.PokeInputName("sha_din_"+itoa(i), ref[i])
	}
	it.Step()
	it.PokeInputName("sha_absorb", 0)
	for p := 0; p < 3; p++ {
		it.Step()
		keccakF(&ref)
		snap := it.RegSnapshot()
		for i := 0; i < 25; i++ {
			if snap[i] != ref[i] {
				t.Fatalf("permutation %d lane %d = %#x, want %#x", p, i, snap[i], ref[i])
			}
		}
	}
}

// TestCtrlIsOneBitDominated pins the reason the Ctrl family exists: after
// the real optimisation pipeline, the overwhelming majority of its LI slots
// must be provably 1-bit, so the bit-packed batch layout covers nearly the
// whole design.
func TestCtrlIsOneBitDominated(t *testing.T) {
	g, err := Generate(Spec{Family: Ctrl, Cores: 256, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	lv, err := dfg.Levelize(opt)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := oim.Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	one, total := 0, ten.NumSlots
	for _, ok := range kernel.OneBitSlots(ten) {
		if ok {
			one++
		}
	}
	if frac := float64(one) / float64(total); frac < 0.9 {
		t.Fatalf("only %d/%d slots (%.0f%%) provably 1-bit; Ctrl must be control-dominated",
			one, total, frac*100)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [4]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestGeneratedDesignsSimulateThroughKernels smoke-tests the full pipeline
// on scaled designs: generate, optimise, levelize, build OIM, run the PSU
// kernel vs the oracle.
func TestGeneratedDesignsSimulateThroughKernels(t *testing.T) {
	specs := []Spec{
		{Family: Rocket, Cores: 1, Scale: 16},
		{Family: SHA3, Scale: 4},
		{Family: Ctrl, Cores: 128, Scale: 2},
	}
	for _, s := range specs {
		g, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
		if err != nil {
			t.Fatal(err)
		}
		lv, err := dfg.Levelize(opt)
		if err != nil {
			t.Fatal(err)
		}
		ten, err := oim.Build(lv)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := kernel.NewProgram(ten, kernel.Config{Kind: kernel.PSU})
		if err != nil {
			t.Fatal(err)
		}
		e := prog.Instantiate()
		it, err := dfg.NewInterp(opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for cyc := 0; cyc < 4; cyc++ {
			for i, p := range opt.Inputs {
				v := rng.Uint64() & opt.Node(p.Node).Mask()
				e.PokeSlot(ten.InputSlots[i], v)
				it.PokeInput(i, v)
			}
			e.Step()
			it.Step()
			or := it.RegSnapshot()
			for i, r := range ten.RegSlots {
				if e.PeekSlot(r.Q) != or[i] {
					t.Fatalf("%s: reg %d diverges at cycle %d", s.Name(), i, cyc)
				}
			}
		}
	}
}
