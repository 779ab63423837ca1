package baseline

import "testing"

// BenchmarkSingleTreeGrid evaluates the single-tree baseline over one
// Figure-2 panel's grid — l = 4, f = 5, γ = 0.5, p = 0, 0.01, …, 0.3 — the
// way a sweep does: compile the shape once, then evaluate every point on
// one scratch. Run it with -benchmem: allocs/op counts only the compile
// and the scratch, since a point evaluation allocates nothing.
func BenchmarkSingleTreeGrid(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		c, err := CompileSingleTree(4, 5, PublishThreatened)
		if err != nil {
			b.Fatal(err)
		}
		sc := c.NewScratch()
		for i := 0; i <= 30; i++ {
			if _, err := c.ERRev(float64(i)/100, 0.5, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestCompiledERRevAllocatesNothing: evaluating a point on a compiled
// chain and its scratch makes no allocation.
func TestCompiledERRevAllocatesNothing(t *testing.T) {
	c, err := CompileSingleTree(3, 3, PublishThreatened)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.NewScratch()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.ERRev(0.2, 0.5, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled ERRev allocated %v times per point, want 0", allocs)
	}
}
