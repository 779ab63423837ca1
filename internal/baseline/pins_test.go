package baseline

import (
	"math"
	"sync"
	"testing"
)

// singleTreePins holds SingleTreeERRev's exact bits as recorded from the
// per-point implementation (map exploration, NewCSR and a row-scatter
// power iteration for every point). Entry i of each row is p = i/20.
var singleTreePins = []struct {
	rule  PublishRule
	gamma float64
	depth int
	width int
	bits  [21]uint64
}{
	{PublishThreatened, 0, 1, 1, [21]uint64{
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 0, 3, 3, [21]uint64{
		0x0000000000000000, 0x3f75e6a2b9d6637e, 0x3f970c4b132897f3, 0x3faad9e1a13c2a27,
		0x3fb85341145286c8, 0x3fc312659e852862, 0x3fcb2a61385567dc, 0x3fd20c7548c2c38b,
		0x3fd6c024c3bb6d41, 0x3fdb84995585a8a9, 0x3fe01a9f0fffd37e, 0x3fe25b27aaa3ec65,
		0x3fe47a70ca1555c2, 0x3fe672e84bcbe367, 0x3fe84216d4dd2b88, 0x3fe9e7ce27d00ade,
		0x3feb656e56754cb1, 0x3fecbd4f107db38c, 0x3fedf24e9c061b89, 0x3fef0782087a9bf6,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 0, 4, 5, [21]uint64{
		0x0000000000000000, 0x3f75f60b18fc124f, 0x3f97504f40085343, 0x3fab8c2d21b2c592,
		0x3fb96479759e932b, 0x3fc44242df1c41a6, 0x3fcd4935b92cffb9, 0x3fd3a91bd83d155a,
		0x3fd8ea779be025ec, 0x3fde27e8af61445b, 0x3fe196c871dd4292, 0x3fe3ec30a84225be,
		0x3fe60aab6ddc0a79, 0x3fe7ef14951233f9, 0x3fe99aa80bd415c5, 0x3feb113f04a2b473,
		0x3fec57fd4c8a837a, 0x3fed746ee9bb2f56, 0x3fee6bffa853fbe5, 0x3fef43b22a9a2b8e,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 0.5, 1, 1, [21]uint64{
		0x0000000000000000, 0x3f999999999a23c7, 0x3fa999999999f4f4, 0x3fb333333333531a,
		0x3fb999999999b285, 0x3fc0000000000afa, 0x3fc3333333333e2c, 0x3fc66666666672fa,
		0x3fc999999999aa4c, 0x3fccccccccccd3f0, 0x3fd0000000000600, 0x3fd1999999999c51,
		0x3fd3333333333461, 0x3fd4cccccccccf8e, 0x3fd6666666666794, 0x3fd8000000000070,
		0x3fd9999999999adf, 0x3fdb333333333381, 0x3fdcccccccccccd6, 0x3fde66666666666a,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 0.5, 3, 3, [21]uint64{
		0x0000000000000000, 0x3f9dabd8e39ab68b, 0x3fb10b84b04ccfc7, 0x3fbcfd7cf838646f,
		0x3fc59175f748e89d, 0x3fcd92eb51d1cf5d, 0x3fd321550c556747, 0x3fd7aa8c0d2e4a38,
		0x3fdc3f36b78f9886, 0x3fe05ee4ffedfc97, 0x3fe285dfe69baa17, 0x3fe48b3d633f7b10,
		0x3fe6696867833f90, 0x3fe81de7a305ea5d, 0x3fe9a89c4dbbe518, 0x3feb0b0846a7ba3a,
		0x3fec47b17ec88b8d, 0x3fed61a99e25b0e5, 0x3fee5c380d104206, 0x3fef3aa099fc4e48,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 0.5, 4, 5, [21]uint64{
		0x0000000000000000, 0x3f9daf95b5bececb, 0x3fb11ba68e98f82e, 0x3fbd5071c3149d99,
		0x3fc60e6178f582c6, 0x3fcea45f70558120, 0x3fd412075ed5e6bc, 0x3fd9139b2a10e03f,
		0x3fde1e4920623983, 0x3fe17f6c72bda435, 0x3fe3c75bc6c7fac2, 0x3fe5db229b1b00c5,
		0x3fe7b5abaa1230bf, 0x3fe956f0daa14643, 0x3feac22e55116a59, 0x3febfc6201c7ee7a,
		0x3fed0b38d4b71749, 0x3fedf46100e3b0e2, 0x3feebd28cfebc75f, 0x3fef6a512db480f2,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 1, 1, 1, [21]uint64{
		0x0000000000000000, 0x3fa99999999a23c7, 0x3fb999999999f4f5, 0x3fc333333333531a,
		0x3fc999999999b285, 0x3fd0000000000af9, 0x3fd3333333333e2c, 0x3fd66666666672fa,
		0x3fd999999999aa4a, 0x3fdcccccccccd3f0, 0x3fe0000000000600, 0x3fe1999999999c51,
		0x3fe3333333333461, 0x3fe4cccccccccf8d, 0x3fe6666666666794, 0x3fe8000000000070,
		0x3fe9999999999adf, 0x3feb333333333381, 0x3fecccccccccccd6, 0x3fee66666666666a,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 1, 3, 3, [21]uint64{
		0x0000000000000000, 0x3faaef048c5fea1e, 0x3fbc53f69bcf7991, 0x3fc647048fe959e6,
		0x3fcef94b64688dd6, 0x3fd409b8828f3b2c, 0x3fd8ad797c801aa0, 0x3fdd48a2d199d0e8,
		0x3fe0df2455b1e1e5, 0x3fe2fb7d551924d9, 0x3fe4f120bd3780b1, 0x3fe6bb531bdb09ba,
		0x3fe8586004f1295f, 0x3fe9c8e6fa3ff152, 0x3feb0f21c69a9ea7, 0x3fec2e42657f6995,
		0x3fed29f4a71bca68, 0x3fee06042bcdae3e, 0x3feec6217e1a6883, 0x3fef6dbf2b7e009a,
		0x3ff0000000000000,
	}},
	{PublishThreatened, 1, 4, 5, [21]uint64{
		0x0000000000000000, 0x3faaf0d4529f4c8a, 0x3fbc63394d2fdb9f, 0x3fc66d667aa7ec51,
		0x3fcf6a86371bbc00, 0x3fd4833e00c7604a, 0x3fd97f73e1154d94, 0x3fde7e1a7be4ab24,
		0x3fe1a90d52722691, 0x3fe3eae48dcaa63a, 0x3fe5f7ef1bb2b2f3, 0x3fe7ca148df3dbce,
		0x3fe960abe648570a, 0x3feabecd2030588e, 0x3febe9b49e4ebeed, 0x3fece784feed2881,
		0x3fedbe745ce3ab18, 0x3fee7453180c326c, 0x3fef0e51f78392d9, 0x3fef90f030ced655,
		0x3ff0000000000000,
	}},
	{PublishTie, 0, 1, 1, [21]uint64{
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x3ff0000000000000,
	}},
	{PublishTie, 0, 3, 3, [21]uint64{
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x3ff0000000000000,
	}},
	{PublishTie, 0, 4, 5, [21]uint64{
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
		0x3ff0000000000000,
	}},
	{PublishTie, 0.5, 1, 1, [21]uint64{
		0x0000000000000000, 0x3f999999999a23c7, 0x3fa999999999f4f4, 0x3fb333333333531a,
		0x3fb999999999b285, 0x3fc0000000000afa, 0x3fc3333333333e2c, 0x3fc66666666672fa,
		0x3fc999999999aa4c, 0x3fccccccccccd3f0, 0x3fd0000000000600, 0x3fd1999999999c51,
		0x3fd3333333333461, 0x3fd4cccccccccf8e, 0x3fd6666666666794, 0x3fd8000000000070,
		0x3fd9999999999adf, 0x3fdb333333333381, 0x3fdcccccccccccd6, 0x3fde66666666666a,
		0x3ff0000000000000,
	}},
	{PublishTie, 0.5, 3, 3, [21]uint64{
		0x0000000000000000, 0x3f9affe378af70a4, 0x3fac95c486c622e8, 0x3fb6acd1be397ef2,
		0x3fbfc9da42c64dda, 0x3fc4b0ab54022c44, 0x3fc98f2f7f4f3342, 0x3fce55dfba1ecbaa,
		0x3fd170c967f7dad8, 0x3fd38d101e2a3608, 0x3fd57938a4c22ace, 0x3fd73343be449911,
		0x3fd8bc6a9e6057d5, 0x3fda17e1eb00c4fd, 0x3fdb49e243e1a0a8, 0x3fdc56fd080ad30e,
		0x3fdd43b1641e6e10, 0x3fde14309fefe691, 0x3fdecc4211bfe64d, 0x3fdf6f3ab44e516a,
		0x3ff0000000000000,
	}},
	{PublishTie, 0.5, 4, 5, [21]uint64{
		0x0000000000000000, 0x3f9b045f9832d11b, 0x3facbae26f6850c1, 0x3fb706795cfb4bd9,
		0x3fc0611d08357b54, 0x3fc5a7043206b876, 0x3fcb1523e3748136, 0x3fd0319a09e6b2cf,
		0x3fd2ab01e8dbde3b, 0x3fd4e4ddff426005, 0x3fd6d8828b0f1b1c, 0x3fd887539e358e44,
		0x3fd9f7462c73df41, 0x3fdb3036915d5ad7, 0x3fdc3a42de1b5ebb, 0x3fdd1cf0072b68f1,
		0x3fddded088306c12, 0x3fde8572f33effe8, 0x3fdf157360fd19df, 0x3fdf929a994bfb91,
		0x3ff0000000000000,
	}},
	{PublishTie, 1, 1, 1, [21]uint64{
		0x0000000000000000, 0x3fa99999999a23c7, 0x3fb999999999f4f5, 0x3fc333333333531a,
		0x3fc999999999b285, 0x3fd0000000000af9, 0x3fd3333333333e2c, 0x3fd66666666672fa,
		0x3fd999999999aa4a, 0x3fdcccccccccd3f0, 0x3fe0000000000600, 0x3fe1999999999c51,
		0x3fe3333333333461, 0x3fe4cccccccccf8d, 0x3fe6666666666794, 0x3fe8000000000070,
		0x3fe9999999999adf, 0x3feb333333333381, 0x3fecccccccccccd6, 0x3fee66666666666a,
		0x3ff0000000000000,
	}},
	{PublishTie, 1, 3, 3, [21]uint64{
		0x0000000000000000, 0x3faaffe378af70a5, 0x3fbc95c486c622e7, 0x3fc6acd1be397ef0,
		0x3fcfc9da42c64de2, 0x3fd4b0ab54022c43, 0x3fd98f2f7f4f3343, 0x3fde55dfba1ecbac,
		0x3fe170c967f7dad9, 0x3fe38d101e2a3608, 0x3fe57938a4c22acf, 0x3fe73343be449910,
		0x3fe8bc6a9e6057d4, 0x3fea17e1eb00c4fd, 0x3feb49e243e1a0a8, 0x3fec56fd080ad30e,
		0x3fed43b1641e6e10, 0x3fee14309fefe691, 0x3feecc4211bfe64d, 0x3fef6f3ab44e516a,
		0x3ff0000000000000,
	}},
	{PublishTie, 1, 4, 5, [21]uint64{
		0x0000000000000000, 0x3fab045f9832d112, 0x3fbcbae26f6850c4, 0x3fc706795cfb4bc1,
		0x3fd0611d08357b53, 0x3fd5a7043206b87c, 0x3fdb1523e374812b, 0x3fe0319a09e6b2d4,
		0x3fe2ab01e8dbde3a, 0x3fe4e4ddff426007, 0x3fe6d8828b0f1b17, 0x3fe887539e358e47,
		0x3fe9f7462c73df42, 0x3feb3036915d5ad4, 0x3fec3a42de1b5ebb, 0x3fed1cf0072b68f3,
		0x3fedded088306c11, 0x3fee8572f33effe8, 0x3fef157360fd19df, 0x3fef929a994bfb90,
		0x3ff0000000000000,
	}},
}

// TestSingleTreeBitwisePins: SingleTreeERRev reproduces the recorded table
// bit for bit — both publish rules, γ ∈ {0, 0.5, 1}, three (l, f) shapes,
// p on a 0.05 grid. Points above p = 0.3 mix slowly (up to ~150 ms each),
// so -short stops there.
func TestSingleTreeBitwisePins(t *testing.T) {
	for _, row := range singleTreePins {
		for i, want := range row.bits {
			params := SingleTreeParams{P: float64(i) / 20, Gamma: row.gamma, MaxDepth: row.depth, MaxWidth: row.width, Rule: row.rule}
			if testing.Short() && params.P > 0.3 {
				break
			}
			got, err := SingleTreeERRev(params)
			if err != nil {
				t.Fatalf("%+v: %v", params, err)
			}
			if math.Float64bits(got) != want {
				t.Errorf("SingleTreeERRev(%+v) = %v (%#016x), want %v (%#016x)",
					params, got, math.Float64bits(got), math.Float64frombits(want), want)
			}
		}
	}
}

// TestCompiledSingleTreeMatchesPins: one compiled chain per (rule, shape)
// and one scratch reused across all of its γ rows and points — the way a
// sweep worker evaluates a grid — reproduces the pinned bits, so nothing a
// point leaves in the scratch leaks into the next. It stops at p = 0.3:
// scratch reuse does not depend on p, and TestSingleTreeBitwisePins
// already covers the slowly mixing points above through the same code.
func TestCompiledSingleTreeMatchesPins(t *testing.T) {
	type shape struct {
		rule         PublishRule
		depth, width int
	}
	chains := map[shape]*CompiledSingleTree{}
	scratches := map[shape]*SingleTreeScratch{}
	for _, row := range singleTreePins {
		key := shape{row.rule, row.depth, row.width}
		if chains[key] == nil {
			c, err := CompileSingleTree(row.depth, row.width, row.rule)
			if err != nil {
				t.Fatal(err)
			}
			chains[key], scratches[key] = c, c.NewScratch()
		}
		for i, want := range row.bits {
			p := float64(i) / 20
			if p > 0.3 {
				break
			}
			got, err := chains[key].ERRev(p, row.gamma, scratches[key])
			if err != nil {
				t.Fatalf("%+v p=%v gamma=%v: %v", key, p, row.gamma, err)
			}
			if math.Float64bits(got) != want {
				t.Errorf("%+v p=%v gamma=%v: compiled ERRev = %v, want %v", key, p, row.gamma, got, math.Float64frombits(want))
			}
		}
	}
}

// TestCompiledSingleTreeConcurrent: one compiled chain shared by several
// goroutines, each on its own scratch — a sweep's baseline pool — gives
// every goroutine the pinned bits. Run under -race it checks that
// evaluation only reads the compiled chain.
func TestCompiledSingleTreeConcurrent(t *testing.T) {
	row := singleTreePins[4] // PublishThreatened, γ = 0.5, l = 3, f = 3
	c, err := CompileSingleTree(row.depth, row.width, row.rule)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := c.NewScratch()
			for i := 0; i <= 6; i++ { // p = 0 … 0.3
				got, err := c.ERRev(float64(i)/20, row.gamma, sc)
				if err != nil || math.Float64bits(got) != row.bits[i] {
					t.Errorf("worker %d, p=%v: ERRev = %v, %v; want %v", w, float64(i)/20, got, err, math.Float64frombits(row.bits[i]))
				}
			}
		}()
	}
	wg.Wait()
}
