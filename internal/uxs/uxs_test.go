package uxs

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestLengthRegimes(t *testing.T) {
	if Length(Scaled, 10) != 8000 {
		t.Errorf("scaled length = %d, want 8000", Length(Scaled, 10))
	}
	if Length(Faithful, 4) != 4*4*4*4*4*2 {
		t.Errorf("faithful length = %d", Length(Faithful, 4))
	}
	if Length(Scaled, 1) != 1 || Length(Faithful, 1) != 1 {
		t.Error("n=1 length should be 1")
	}
}

func TestSequenceDeterministicFromN(t *testing.T) {
	a, b := New(12, Scaled), New(12, Scaled)
	for i := 0; i < 1000; i++ {
		if a.Offset(i) != b.Offset(i) {
			t.Fatal("two robots computed different sequences from the same n")
		}
	}
	c := New(13, Scaled)
	same := true
	for i := 0; i < 100; i++ {
		if a.Offset(i) != c.Offset(i) {
			same = false
		}
	}
	if same {
		t.Error("different n produced identical sequences")
	}
}

func TestNextPortInRange(t *testing.T) {
	u := New(9, Scaled)
	f := func(i uint16, entry int8, degRaw uint8) bool {
		deg := int(degRaw%8) + 1
		e := int(entry)
		if e >= deg {
			e = e % deg
		}
		p := u.NextPort(int(i), e, deg)
		return p >= 0 && p < deg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoverageOnStandardFamilies(t *testing.T) {
	rng := graph.NewRNG(5)
	for _, fam := range graph.AllFamilies() {
		for _, n := range []int{4, 8, 16} {
			g := graph.FromFamily(fam, n, rng)
			if err := New(g.N(), Scaled).Check(g); err != nil {
				t.Errorf("%s n=%d: %v", fam, n, err)
			}
		}
	}
}

func TestCoverageRoundsBounds(t *testing.T) {
	g := graph.Cycle(8)
	u := New(8, Scaled)
	r := u.CoverageRounds(g, 0)
	if r < 7 {
		t.Errorf("coverage in %d rounds: impossible, need >= 7", r)
	}
	if r > u.Len() {
		t.Errorf("coverage rounds %d exceeds length %d", r, u.Len())
	}
}

func TestCoverageSingleNode(t *testing.T) {
	g := graph.NewBuilder(1).Freeze()
	u := New(1, Scaled)
	if u.CoverageRounds(g, 0) != 1 {
		t.Error("single node not covered instantly")
	}
}

// TestScaledCoversCatalog is the coverage property the runs rely on: the
// scaled sequence, whose length comes from n alone, covers each graph from
// every start node, across the workload catalog's shapes (n from 16 to
// 384) at seeds 1-10. Shapes whose walks take seconds per ten seeds
// (lollipop:128, path:256, rmat:8,4) are left out.
func TestScaledCoversCatalog(t *testing.T) {
	specs := []string{
		"path:16", "bipartite:8x8", "complete:32", "barbell:16", "barbell:8,16",
		"lollipop:32", "cycle:64", "grid:8x8", "star:64", "wheel:64",
		"caterpillar:16,3", "circulant:64,1,5", "random:64", "randm:64,96",
		"margulis:8", "rmat:6,4", "maze:8", "bintree:63", "road:10x10",
		"tree:128", "hypercube:8", "torus:16x16", "rreg:256,4", "rreg:384,4",
	}
	for _, spec := range specs {
		wl := graph.MustWorkload(spec)
		for seed := uint64(1); seed <= 10; seed++ {
			g, err := wl.Build(graph.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := New(g.N(), Scaled).Check(g); err != nil {
				t.Errorf("%s seed %d: %v", spec, seed, err)
			}
		}
	}
}

func TestWalkIsReproducible(t *testing.T) {
	rng := graph.NewRNG(8)
	g := graph.FromFamily(graph.FamRandom, 10, rng)
	u := New(10, Scaled)
	run := func() []int {
		cur, entry := 0, -1
		var trail []int
		for i := 0; i < 200; i++ {
			p := u.NextPort(i, entry, g.Degree(cur))
			cur, entry = g.Neighbor(cur, p)
			trail = append(trail, cur)
		}
		return trail
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("walk not reproducible")
		}
	}
}

func TestOffsetsLookUniform(t *testing.T) {
	// Sanity: offsets modulo small degrees should hit every residue.
	u := New(20, Scaled)
	for _, deg := range []int{2, 3, 5} {
		seen := make([]bool, deg)
		for i := 0; i < 200; i++ {
			seen[int(u.Offset(i)%uint64(deg))] = true
		}
		for r, ok := range seen {
			if !ok {
				t.Errorf("degree %d: residue %d never produced", deg, r)
			}
		}
	}
}

func TestWithLengthValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 5}, {5, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithLength(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			WithLength(bad[0], bad[1])
		}()
	}
}

// Property: the induced walk never uses an out-of-range port on any random
// graph, for any start.
func TestWalkPortSafety(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		rng := graph.NewRNG(seed)
		g := graph.MustRandomConnected(n, min(2*n, n*(n-1)/2), rng)
		g = g.WithPermutedPorts(rng)
		u := WithLength(n, 500)
		cur, entry := rng.Intn(n), -1
		for i := 0; i < 500; i++ {
			p := u.NextPort(i, entry, g.Degree(cur))
			if p < 0 || p >= g.Degree(cur) {
				return false
			}
			cur, entry = g.Neighbor(cur, p)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
