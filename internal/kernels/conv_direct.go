// Package kernels implements the actual float32 compute primitives the
// inference engine executes: direct convolution (the reference every
// other variant is tested against), the BLAS-style lowerings (im2col,
// im2row, kn2row), Winograd F(2x2,3x3), depth-wise and sparse
// convolution, fully-connected kernels, and the element-wise / pooling
// / normalization operators. NCHW is the native layout; a handful of
// NHWC-native kernels exist so the engine has genuinely
// layout-incompatible primitives to choose between.
package kernels

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// convOutShape computes the output shape of a convolution-like op.
func convOutShape(in tensor.Shape, outC int, p nn.ConvParams) tensor.Shape {
	oh := (in.H+2*p.PadH-p.KernelH)/p.StrideH + 1
	ow := (in.W+2*p.PadW-p.KernelW)/p.StrideW + 1
	return tensor.Shape{N: in.N, C: outC, H: oh, W: ow}
}

// checkConvArgs validates weight/bias lengths for a dense convolution.
func checkConvArgs(in tensor.Shape, w, bias []float32, p nn.ConvParams) {
	need := p.OutChannels * in.C * p.KernelH * p.KernelW
	if len(w) != need {
		panic(fmt.Sprintf("kernels: conv weights have %d elements, need %d", len(w), need))
	}
	if len(bias) != p.OutChannels {
		panic(fmt.Sprintf("kernels: conv bias has %d elements, need %d", len(bias), p.OutChannels))
	}
}

// ConvDirect computes a dense 2-D convolution over an NCHW input with
// OIHW weights, the dependency-free "Vanilla" implementation and the
// numerical reference for every other conv kernel.
func ConvDirect(in *tensor.Tensor, w, bias []float32, p nn.ConvParams) *tensor.Tensor {
	return ConvDirectPar(in, w, bias, p, 1)
}

// ConvDirectPar is ConvDirect with the (sample, output-channel) planes
// partitioned across at most workers goroutines. Each plane is filled
// with its bias and then accumulates every input channel's taps in
// (c, r, q) order — the order the classic per-pixel loop sums them in —
// so the output is bit-identical to ConvDirect at any worker count.
func ConvDirectPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvDirect requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	kArea := p.KernelH * p.KernelW
	hw, ohw := s.H*s.W, os.H*os.W
	x, y := in.Data(), out.Data()
	parFor(s.N*os.C, workers, func(j int) {
		n, oc := j/os.C, j%os.C
		plane := y[j*ohw : (j+1)*ohw]
		fill(plane, bias[oc])
		for c := 0; c < s.C; c++ {
			wk := w[(oc*s.C+c)*kArea : (oc*s.C+c+1)*kArea]
			addTaps(plane, x[(n*s.C+c)*hw:(n*s.C+c+1)*hw], wk, s, os, p)
		}
	})
	return out
}

// fill sets every element of dst to v.
func fill(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// tapRange returns the output positions [lo, hi) along one axis whose
// input position o*stride + k - pad, for kernel offset k, lies inside
// [0, size).
func tapRange(k, stride, pad, size, outSize int) (lo, hi int) {
	last := size - 1 - k + pad
	if last < 0 {
		return 0, 0
	}
	hi = min(last/stride+1, outSize)
	if d := pad - k; d > 0 {
		lo = min((d+stride-1)/stride, hi)
	}
	return lo, hi
}

// addTaps adds one input channel's contribution to one output plane:
// for each kernel offset (r, q) in order, every output pixel whose tap
// (oh*SH+r-PH, ow*SW+q-PW) is in bounds gets wk[r*KW+q] times that
// input value. Calling it for c = 0, 1, ... on a bias-filled plane
// gives each output element bias, then its in-bounds (c, r, q) terms
// ascending — exactly the per-pixel direct loop's sequence of float32
// operations. x is the H x W input channel, plane the OH x OW output.
func addTaps(plane, x, wk []float32, s, os tensor.Shape, p nn.ConvParams) {
	for r := 0; r < p.KernelH; r++ {
		oy0, oy1 := tapRange(r, p.StrideH, p.PadH, s.H, os.H)
		for q := 0; q < p.KernelW; q++ {
			ox0, ox1 := tapRange(q, p.StrideW, p.PadW, s.W, os.W)
			if ox0 >= ox1 {
				continue
			}
			wv := wk[r*p.KernelW+q]
			iw0 := ox0*p.StrideW + q - p.PadW
			for oy := oy0; oy < oy1; oy++ {
				ih := oy*p.StrideH + r - p.PadH
				orow := plane[oy*os.W+ox0 : oy*os.W+ox1]
				xrow := x[ih*s.W+iw0 : (ih+1)*s.W]
				if p.StrideW == 1 {
					xrow = xrow[:len(orow)]
					for i := range orow {
						orow[i] += wv * xrow[i]
					}
					continue
				}
				for i := range orow {
					orow[i] += wv * xrow[i*p.StrideW]
				}
			}
		}
	}
}

// ConvDirectNHWC is ConvDirect for NHWC input, producing NHWC output.
// It exists so the primitive registry has a genuinely NHWC-native
// convolution (the NNPACK-style family), making layout conversions a
// real cost rather than bookkeeping.
func ConvDirectNHWC(in *tensor.Tensor, w, bias []float32, p nn.ConvParams) *tensor.Tensor {
	return ConvDirectNHWCPar(in, w, bias, p, 1)
}

// ConvDirectNHWCPar is ConvDirectNHWC with the (sample, output-row)
// slabs partitioned across workers goroutines. Each output pixel's
// OC-long row starts as the bias and then, for every in-bounds (r, q)
// and each input channel c in turn, adds that input value times the
// matching OC-long row of the (r, q, c, oc)-regrouped weights: every
// output element still sums bias, then (r, q, c) ascending. Output rows
// are contiguous exclusive slabs in NHWC, so results are bit-identical
// at any worker count.
func ConvDirectNHWCPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NHWC {
		panic("kernels: ConvDirectNHWC requires NHWC input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NHWC)
	os := out.Shape()
	oc := os.C
	// wr[((r*KW+q)*C+c)*OC+o] = w[o][c][r][q].
	wr := make([]float32, len(w))
	for o := 0; o < oc; o++ {
		for c := 0; c < s.C; c++ {
			for r := 0; r < p.KernelH; r++ {
				for q := 0; q < p.KernelW; q++ {
					wr[((r*p.KernelW+q)*s.C+c)*oc+o] = w[((o*s.C+c)*p.KernelH+r)*p.KernelW+q]
				}
			}
		}
	}
	x, y := in.Data(), out.Data()
	taps := p.KernelH * p.KernelW * s.C
	parChunks(s.N*os.H, workers, func(lo, hi int) {
		// One pixel's in-bounds taps: input values and weight rows.
		xs, rows := make([]float32, taps), make([]int32, taps)
		for j := lo; j < hi; j++ {
			n, oh := j/os.H, j%os.H
			for ow := 0; ow < os.W; ow++ {
				t := 0
				for r := 0; r < p.KernelH; r++ {
					ih := oh*p.StrideH + r - p.PadH
					if ih < 0 || ih >= s.H {
						continue
					}
					for q := 0; q < p.KernelW; q++ {
						iw := ow*p.StrideW + q - p.PadW
						if iw < 0 || iw >= s.W {
							continue
						}
						px := ((n*s.H+ih)*s.W + iw) * s.C
						row := (r*p.KernelW + q) * s.C
						for c, v := range x[px : px+s.C] {
							xs[t], rows[t] = v, int32(row+c)
							t++
						}
					}
				}
				orow := y[(j*os.W+ow)*oc : (j*os.W+ow+1)*oc]
				copy(orow, bias)
				addRows(orow, xs[:t], rows[:t], wr)
			}
		}
	})
	return out
}

// addRows adds xs[t] times row rows[t] of w to y, for t = 0, 1, ... in
// order, where row k is w[k*len(y) : (k+1)*len(y)]. Four rows go per
// pass over y, each element held in a register across them: the same
// sequence of rounded multiplies and adds per element as one pass per
// row, with a quarter of the loads and stores of y.
func addRows(y, xs []float32, rows []int32, w []float32) {
	m := len(y)
	t := 0
	for ; t+4 <= len(xs); t += 4 {
		x0, x1, x2, x3 := xs[t], xs[t+1], xs[t+2], xs[t+3]
		w0 := w[int(rows[t])*m:][:m]
		w1 := w[int(rows[t+1])*m:][:m]
		w2 := w[int(rows[t+2])*m:][:m]
		w3 := w[int(rows[t+3])*m:][:m]
		for i := range y {
			v := y[i]
			v += w0[i] * x0
			v += w1[i] * x1
			v += w2[i] * x2
			v += w3[i] * x3
			y[i] = v
		}
	}
	for ; t < len(xs); t++ {
		xv, wt := xs[t], w[int(rows[t])*m:][:m]
		for i := range y {
			y[i] += wt[i] * xv
		}
	}
}

// DepthwiseDirect computes a depth-wise convolution (one KxK filter per
// channel) over an NCHW input. Weights are C*KH*KW, bias is C.
func DepthwiseDirect(in *tensor.Tensor, w, bias []float32, p nn.ConvParams) *tensor.Tensor {
	return DepthwiseDirectPar(in, w, bias, p, 1)
}

// DepthwiseDirectPar is DepthwiseDirect with the (sample, channel)
// planes partitioned across workers goroutines. Each plane is filled
// with its bias and accumulates its channel's taps in (r, q) order, as
// the per-pixel loop does; planes are exclusive, so results are
// bit-identical at any worker count.
func DepthwiseDirectPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: DepthwiseDirect requires NCHW input")
	}
	s := in.Shape()
	kArea := p.KernelH * p.KernelW
	if len(w) != s.C*kArea {
		panic(fmt.Sprintf("kernels: depthwise weights have %d elements, need %d", len(w), s.C*kArea))
	}
	if len(bias) != s.C {
		panic(fmt.Sprintf("kernels: depthwise bias has %d elements, need %d", len(bias), s.C))
	}
	out := tensor.New(convOutShape(s, s.C, p), tensor.NCHW)
	os := out.Shape()
	hw, ohw := s.H*s.W, os.H*os.W
	x, y := in.Data(), out.Data()
	parFor(s.N*s.C, workers, func(j int) {
		c := j % s.C
		plane := y[j*ohw : (j+1)*ohw]
		fill(plane, bias[c])
		addTaps(plane, x[j*hw:(j+1)*hw], w[c*kArea:(c+1)*kArea], s, os, p)
	})
	return out
}

// DepthwiseNHWC is DepthwiseDirect for NHWC input/output (the
// ArmCL-style specialized depth-wise code path).
func DepthwiseNHWC(in *tensor.Tensor, w, bias []float32, p nn.ConvParams) *tensor.Tensor {
	return DepthwiseNHWCPar(in, w, bias, p, 1)
}

// DepthwiseNHWCPar is DepthwiseNHWC with the (sample, output-row)
// slabs partitioned across workers goroutines. Each output pixel's
// C-long row starts as the bias and adds, for every in-bounds (r, q) in
// order, the input pixel's channels times the (r, q) row of the
// (r, q, c)-regrouped weights, so each output still sums bias, then
// (r, q) ascending. Results are bit-identical at any worker count.
func DepthwiseNHWCPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NHWC {
		panic("kernels: DepthwiseNHWC requires NHWC input")
	}
	s := in.Shape()
	kArea := p.KernelH * p.KernelW
	if len(w) != s.C*kArea || len(bias) != s.C {
		panic("kernels: depthwise weight/bias size mismatch")
	}
	out := tensor.New(convOutShape(s, s.C, p), tensor.NHWC)
	os := out.Shape()
	// wr[(r*KW+q)*C+c] = w[c][r][q].
	wr := make([]float32, len(w))
	for c := 0; c < s.C; c++ {
		for k := 0; k < kArea; k++ {
			wr[k*s.C+c] = w[c*kArea+k]
		}
	}
	x, y := in.Data(), out.Data()
	parChunks(s.N*os.H, workers, func(lo, hi int) {
		// One pixel's in-bounds taps: input pixel and weight row offsets.
		xo, wo := make([]int, kArea), make([]int, kArea)
		for j := lo; j < hi; j++ {
			n, oh := j/os.H, j%os.H
			for ow := 0; ow < os.W; ow++ {
				t := 0
				for r := 0; r < p.KernelH; r++ {
					ih := oh*p.StrideH + r - p.PadH
					if ih < 0 || ih >= s.H {
						continue
					}
					for q := 0; q < p.KernelW; q++ {
						iw := ow*p.StrideW + q - p.PadW
						if iw < 0 || iw >= s.W {
							continue
						}
						xo[t], wo[t] = ((n*s.H+ih)*s.W+iw)*s.C, (r*p.KernelW+q)*s.C
						t++
					}
				}
				orow := y[(j*os.W+ow)*s.C : (j*os.W+ow+1)*s.C]
				copy(orow, bias)
				addProducts(orow, x, wr, xo[:t], wo[:t])
			}
		}
	})
	return out
}

// addProducts adds w[wo[t]+i] * x[xo[t]+i] to y[i] for every i, for
// t = 0, 1, ... in order. Like addRows it takes four terms per pass over
// y without changing any element's sequence of operations.
func addProducts(y, x, w []float32, xo, wo []int) {
	m := len(y)
	t := 0
	for ; t+4 <= len(xo); t += 4 {
		x0, w0 := x[xo[t]:][:m], w[wo[t]:][:m]
		x1, w1 := x[xo[t+1]:][:m], w[wo[t+1]:][:m]
		x2, w2 := x[xo[t+2]:][:m], w[wo[t+2]:][:m]
		x3, w3 := x[xo[t+3]:][:m], w[wo[t+3]:][:m]
		for i := range y {
			v := y[i]
			v += w0[i] * x0[i]
			v += w1[i] * x1[i]
			v += w2[i] * x2[i]
			v += w3[i] * x3[i]
			y[i] = v
		}
	}
	for ; t < len(xo); t++ {
		xt, wt := x[xo[t]:][:m], w[wo[t]:][:m]
		for i := range y {
			y[i] += wt[i] * xt[i]
		}
	}
}
