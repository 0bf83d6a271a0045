package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The kernels index their tensors' data slices directly and may nest
// their loops however locality wants, but every output element must
// keep the reference kernel's sequence of float32 operations. These
// tests hold them to that bit for bit against reference_test.go.

// oracleGeom is one kernel geometry: the input shape and the conv (or
// pooling) parameters, whose group count divides both channel counts.
type oracleGeom struct {
	in tensor.Shape
	p  nn.ConvParams
}

func (g oracleGeom) String() string {
	return fmt.Sprintf("in=%v oc=%d k=%dx%d s=%dx%d pad=%dx%d groups=%d", g.in, g.p.OutChannels,
		g.p.KernelH, g.p.KernelW, g.p.StrideH, g.p.StrideW, g.p.PadH, g.p.PadW, g.p.GroupCount())
}

// makeGeom clamps raw values into a valid geometry: kernel 1..5,
// stride 1..2, padding 0..K-1, spatial sizes large enough for at least
// one output, channel counts multiples of the group count.
func makeGeom(n, cpg, h, w, opg, kh, kw, sh, sw, ph, pw, groups int) oracleGeom {
	clamp := func(v, lo, hi int) int {
		span := hi - lo + 1
		return lo + ((v-lo)%span+span)%span
	}
	kh, kw = clamp(kh, 1, 5), clamp(kw, 1, 5)
	ph, pw = clamp(ph, 0, kh-1), clamp(pw, 0, kw-1)
	groups = clamp(groups, 1, 2)
	return oracleGeom{
		in: tensor.Shape{N: clamp(n, 1, 2), C: groups * clamp(cpg, 1, 4),
			H: max(clamp(h, 1, 11), kh-2*ph), W: max(clamp(w, 1, 11), kw-2*pw)},
		p: nn.ConvParams{OutChannels: groups * clamp(opg, 1, 4), KernelH: kh, KernelW: kw,
			StrideH: clamp(sh, 1, 2), StrideW: clamp(sw, 1, 2), PadH: ph, PadW: pw, Groups: groups},
	}
}

// randGeom draws a geometry from rng.
func randGeom(rng *rand.Rand) oracleGeom {
	return makeGeom(rng.Intn(2)+1, rng.Intn(4)+1, rng.Intn(11)+1, rng.Intn(11)+1, rng.Intn(4)+1,
		rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(2)+1, rng.Intn(2)+1, rng.Intn(5), rng.Intn(5), rng.Intn(2)+1)
}

// edgeGeoms are the shapes the bit-identity contract is most likely to
// break on: 1x1 kernels, odd H/W, a single channel, a batch of two,
// stride 2, padding up to K-1, grouping, and the 3x3 stride-1 shape the
// Winograd and FFT kernels accept.
var edgeGeoms = []oracleGeom{
	makeGeom(1, 1, 7, 7, 3, 1, 1, 1, 1, 0, 0, 1),
	makeGeom(2, 3, 9, 5, 2, 1, 1, 2, 2, 0, 0, 1),
	makeGeom(1, 1, 5, 5, 1, 3, 3, 1, 1, 2, 2, 1),
	makeGeom(2, 2, 7, 9, 4, 3, 3, 1, 1, 1, 1, 1),
	makeGeom(1, 4, 11, 11, 4, 3, 3, 2, 2, 1, 1, 1),
	makeGeom(2, 1, 3, 3, 2, 5, 5, 1, 1, 4, 4, 1),
	makeGeom(1, 2, 6, 8, 3, 5, 3, 2, 1, 4, 2, 2),
	makeGeom(2, 3, 1, 1, 2, 1, 1, 1, 1, 0, 0, 2),
	makeGeom(1, 1, 4, 4, 1, 3, 3, 1, 1, 0, 0, 1),
}

// float32sBitEqual reports whether a and b hold the same bits.
func float32sBitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sameTensor reports whether got and want agree in shape, layout and
// every bit of data.
func sameTensor(got, want *tensor.Tensor) bool {
	return got.Shape() == want.Shape() && got.Layout() == want.Layout() &&
		float32sBitEqual(got.Data(), want.Data())
}

func randFloats(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

// checkAgainstReference runs every rewritten kernel on g with inputs
// drawn from seed, at 1, 2 and 8 workers, and fails t on the first
// output whose bits differ from the reference's.
func checkAgainstReference(t *testing.T, g oracleGeom, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, p := g.in, g.p
	x := tensor.New(s, tensor.NCHW)
	x.FillRandom(rng, 1)
	xh := x.ToLayout(tensor.NHWC)
	kArea := p.KernelH * p.KernelW
	dense := p
	dense.Groups = 0
	w := randFloats(rng, p.OutChannels*s.C*kArea)
	gw := w[:p.OutChannels*(s.C/p.GroupCount())*kArea]
	bias := randFloats(rng, p.OutChannels)
	dw := randFloats(rng, s.C*kArea)
	dbias := randFloats(rng, s.C)
	os := convOutShape(s, p.OutChannels, p)

	fail := func(name string, workers int) {
		t.Helper()
		t.Fatalf("%s differs from the reference at workers=%d (%v, seed %d)", name, workers, g, seed)
	}
	check := func(name string, workers int, got, want *tensor.Tensor) {
		t.Helper()
		if !sameTensor(got, want) {
			fail(name, workers)
		}
	}

	for _, workers := range []int{1, 2, 8} {
		check("ConvDirectPar", workers, ConvDirectPar(x, w, bias, dense, workers), refConvDirectPar(x, w, bias, dense, 1))
		check("ConvDirectNHWCPar", workers, ConvDirectNHWCPar(xh, w, bias, dense, workers), refConvDirectNHWCPar(xh, w, bias, dense, 1))
		check("DepthwiseDirectPar", workers, DepthwiseDirectPar(x, dw, dbias, p, workers), refDepthwiseDirectPar(x, dw, dbias, p, 1))
		check("DepthwiseNHWCPar", workers, DepthwiseNHWCPar(xh, dw, dbias, p, workers), refDepthwiseNHWCPar(xh, dw, dbias, p, 1))
		check("ConvGroupedDirectPar", workers, ConvGroupedDirectPar(x, gw, bias, p, workers), refConvGroupedDirectPar(x, gw, bias, p, 1))
		check("ConvGroupedIm2colPar", workers, ConvGroupedIm2colPar(x, gw, bias, p, gemm.Naive, workers),
			refConvGroupedIm2colPar(x, gw, bias, p, gemm.Naive, 1))
		check("ConvKn2rowPar", workers, ConvKn2rowPar(x, w, bias, dense, gemm.Naive, workers),
			refConvKn2rowPar(x, w, bias, dense, gemm.Naive, 1))
		if p.StrideH == 1 && p.StrideW == 1 {
			check("ConvFFTPar", workers, ConvFFTPar(x, w, bias, dense, workers), refConvFFTPar(x, w, bias, dense, 1))
			if p.KernelH == 3 && p.KernelW == 3 {
				check("ConvWinogradPar", workers, ConvWinogradPar(x, w, bias, dense, workers), refConvWinogradPar(x, w, bias, dense, 1))
			}
		}
		for n := 0; n < s.N; n++ {
			if !float32sBitEqual(Im2colPar(x, n, dense, os.H, os.W, workers), refIm2colPar(x, n, dense, os.H, os.W, 1)) {
				fail("Im2colPar", workers)
			}
			if !float32sBitEqual(Im2rowPar(x, n, dense, os.H, os.W, workers), refIm2rowPar(x, n, dense, os.H, os.W, 1)) {
				fail("Im2rowPar", workers)
			}
			// Panel lowerings over every split into two panels; the
			// buffers start dirty to prove every entry is written.
			ckk := s.C * kArea
			for y0 := 0; y0 < os.H; y0++ {
				for _, span := range [][2]int{{0, y0 + 1}, {y0, os.H}} {
					got := randFloats(rng, ckk*(span[1]-span[0])*os.W)
					want := append([]float32(nil), got...)
					im2colRows(x, n, dense, os.W, span[0], span[1], workers, got)
					refIm2colRows(x, n, dense, os.W, span[0], span[1], 1, want)
					if !float32sBitEqual(got, want) {
						fail("im2colRows", workers)
					}
					im2rowRows(x, n, dense, os.W, span[0], span[1], workers, got)
					refIm2rowRows(x, n, dense, os.W, span[0], span[1], 1, want)
					if !float32sBitEqual(got, want) {
						fail("im2rowRows", workers)
					}
				}
			}
		}
	}

	// Layout-preserving operators, in both layouts.
	scale, shift := randFloats(rng, s.C), randFloats(rng, s.C)
	for _, in := range []*tensor.Tensor{x, xh} {
		l := in.Layout().String()
		check("MaxPool/"+l, 1, MaxPool(in, p), refMaxPool(in, p))
		check("AvgPool/"+l, 1, AvgPool(in, p), refAvgPool(in, p))
		check("BatchNorm/"+l, 1, BatchNorm(in, scale, shift), refBatchNorm(in, scale, shift))
		for _, size := range []int{1, 3, 5} {
			check(fmt.Sprintf("LRN(%d)/%s", size, l), 1, LRN(in, size), refLRN(in, size))
		}
		check("Softmax/"+l, 1, Softmax(in), refSoftmax(in))
		other := tensor.New(tensor.Shape{N: s.N, C: p.OutChannels, H: s.H, W: s.W}, tensor.NCHW)
		other.FillRandom(rng, 1)
		other = other.ToLayout(in.Layout())
		ins := []*tensor.Tensor{in, other, in}
		check("Concat/"+l, 1, Concat(ins), refConcat(ins))
	}

	// The sparse conv's SpMM, on the im2col matrix of sample 0.
	csr := FromDense(p.OutChannels, s.C*kArea, w, 0.5)
	cols := Im2col(x, 0, dense, os.H, os.W)
	got := randFloats(rng, p.OutChannels*os.H*os.W)
	want := append([]float32(nil), got...)
	csr.MulMat(os.H*os.W, cols, got)
	refMulMat(csr, os.H*os.W, cols, want)
	if !float32sBitEqual(got, want) {
		fail("CSR.MulMat", 1)
	}
}

// TestKernelsMatchReferenceBitExact is the bit-identity contract:
// every rewritten kernel reproduces the reference's bits on the edge
// shapes and on random geometries, at 1, 2 and 8 workers.
func TestKernelsMatchReferenceBitExact(t *testing.T) {
	for i, g := range edgeGeoms {
		checkAgainstReference(t, g, int64(i))
	}
	rng := rand.New(rand.NewSource(20190325))
	rounds := 120
	if testing.Short() {
		rounds = 20
	}
	for i := 0; i < rounds; i++ {
		checkAgainstReference(t, randGeom(rng), rng.Int63())
	}
}

// FuzzKernelsMatchReference explores geometries beyond the property
// test's draws; the raw values are clamped into a valid geometry by
// makeGeom. The seed corpus covers the edge shapes.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(7), uint8(7), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(2), uint8(3), uint8(9), uint8(5), uint8(2), uint8(1), uint8(1), uint8(2), uint8(2), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(2), uint8(1), uint8(3), uint8(3), uint8(2), uint8(5), uint8(5), uint8(1), uint8(1), uint8(4), uint8(4), uint8(1))
	f.Add(int64(4), uint8(1), uint8(2), uint8(6), uint8(8), uint8(3), uint8(5), uint8(3), uint8(2), uint8(1), uint8(4), uint8(2), uint8(2))
	f.Add(int64(5), uint8(2), uint8(2), uint8(7), uint8(9), uint8(4), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(6), uint8(1), uint8(4), uint8(11), uint8(11), uint8(4), uint8(3), uint8(3), uint8(2), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, cpg, h, w, opg, kh, kw, sh, sw, ph, pw, groups uint8) {
		g := makeGeom(int(n), int(cpg), int(h), int(w), int(opg), int(kh), int(kw),
			int(sh), int(sw), int(ph), int(pw), int(groups))
		checkAgainstReference(t, g, seed)
	})
}
