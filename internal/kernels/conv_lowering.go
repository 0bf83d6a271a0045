package kernels

import (
	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Im2col lowers an NCHW input into the (C*KH*KW) x (OH*OW) patch
// matrix: each column holds one receptive field, each row one
// (channel, kernel-offset) pair. Out-of-bounds (padding) entries are
// zero. This is the classic Caffe/BLAS lowering.
func Im2col(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow int) []float32 {
	return Im2colPar(in, n, p, oh, ow, 1)
}

// Im2colPar is Im2col with the columns partitioned into blocks across
// workers goroutines: column y*ow+x belongs to output row y, and each
// worker fills every matrix row for its own block of output rows. Every
// entry is a pure assignment into an exclusive column range, so the
// matrix is bit-identical at any worker count.
func Im2colPar(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	s := in.Shape()
	rows := s.C * p.KernelH * p.KernelW
	cols := oh * ow
	m := make([]float32, rows*cols)
	hw := s.H * s.W
	xs := in.Data()[n*s.C*hw : (n+1)*s.C*hw]
	parFor(oh, workers, func(y int) {
		row := 0
		for c := 0; c < s.C; c++ {
			xc := xs[c*hw : (c+1)*hw]
			for r := 0; r < p.KernelH; r++ {
				ih := y*p.StrideH + r - p.PadH
				for q := 0; q < p.KernelW; q++ {
					if ih >= 0 && ih < s.H {
						base := row*cols + y*ow
						for x := 0; x < ow; x++ {
							iw := x*p.StrideW + q - p.PadW
							if iw >= 0 && iw < s.W {
								m[base+x] = xc[ih*s.W+iw]
							}
						}
					}
					row++
				}
			}
		}
	})
	return m
}

// Im2row lowers an NCHW input into the (OH*OW) x (C*KH*KW) patch
// matrix — the transpose orientation of Im2col, matching BLAS
// libraries that prefer the patches as rows.
func Im2row(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow int) []float32 {
	return Im2rowPar(in, n, p, oh, ow, 1)
}

// Im2rowPar is Im2row with the patch rows partitioned by output row
// across workers goroutines; each patch is an exclusive slice, so the
// matrix is bit-identical at any worker count.
func Im2rowPar(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	s := in.Shape()
	cols := s.C * p.KernelH * p.KernelW
	m := make([]float32, oh*ow*cols)
	hw := s.H * s.W
	xs := in.Data()[n*s.C*hw : (n+1)*s.C*hw]
	parFor(oh, workers, func(y int) {
		patch := y * ow
		for x := 0; x < ow; x++ {
			base := patch * cols
			i := 0
			for c := 0; c < s.C; c++ {
				for r := 0; r < p.KernelH; r++ {
					ih := y*p.StrideH + r - p.PadH
					for q := 0; q < p.KernelW; q++ {
						iw := x*p.StrideW + q - p.PadW
						if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
							m[base+i] = xs[(c*s.H+ih)*s.W+iw]
						}
						i++
					}
				}
			}
			patch++
		}
	})
	return m
}

// Gemm is the matrix-multiply signature the lowering kernels accept, so
// the same code path serves the naive (ATLAS-like), blocked, and
// packed/parallel (tuned-BLAS-like) backends.
type Gemm func(m, n, k int, a, b, c []float32)

// ConvIm2col computes a dense convolution as W (OC x CKK) times the
// im2col matrix (CKK x OHOW), using the supplied GEMM.
func ConvIm2col(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm) *tensor.Tensor {
	return ConvIm2colPar(in, w, bias, p, mul, 1)
}

// ConvIm2colPar is ConvIm2col with the im2col lowering parallelized
// across column blocks (Im2colPar); the GEMM parallelism is whatever
// mul provides. Results are bit-identical at any worker count.
func ConvIm2colPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvIm2col requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	for n := 0; n < s.N; n++ {
		cols := Im2colPar(in, n, p, os.H, os.W, workers)
		res := make([]float32, p.OutChannels*spatial)
		for oc := 0; oc < p.OutChannels; oc++ {
			b := bias[oc]
			row := res[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] = b
			}
		}
		mul(p.OutChannels, spatial, ckk, w, cols, res)
		copy(out.Data()[n*os.C*spatial:], res)
	}
	return out
}

// ConvIm2row computes a dense convolution as the im2row matrix
// (OHOW x CKK) times W-transposed (CKK x OC), then transposes the
// result back into NCHW.
func ConvIm2row(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm) *tensor.Tensor {
	return ConvIm2rowPar(in, w, bias, p, mul, 1)
}

// ConvIm2rowPar is ConvIm2row with the im2row lowering parallelized
// across patch-row blocks (Im2rowPar); results are bit-identical at any
// worker count.
func ConvIm2rowPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvIm2row requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	wt := make([]float32, len(w))
	gemm.Transpose(p.OutChannels, ckk, w, wt)
	for n := 0; n < s.N; n++ {
		rows := Im2rowPar(in, n, p, os.H, os.W, workers)
		res := make([]float32, spatial*p.OutChannels) // (OHOW x OC)
		for i := 0; i < spatial; i++ {
			copy(res[i*p.OutChannels:(i+1)*p.OutChannels], bias)
		}
		mul(spatial, p.OutChannels, ckk, rows, wt, res)
		// Transpose (OHOW x OC) into the NCHW output plane.
		dst := out.Data()[n*os.C*spatial:]
		for i := 0; i < spatial; i++ {
			for oc := 0; oc < p.OutChannels; oc++ {
				dst[oc*spatial+i] = res[i*p.OutChannels+oc]
			}
		}
	}
	return out
}

// ConvKn2row computes a dense convolution as KH*KW rank-C GEMMs: for
// each kernel offset (r,q), the 1x1 sub-filter W[:, :, r, q] (OC x C)
// multiplies the correspondingly shifted input (C x OHOW) and
// accumulates into the output. The shifted view is gathered into a
// scratch buffer, which generalizes the textbook stride-1 kn2row to
// arbitrary stride and padding.
func ConvKn2row(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm) *tensor.Tensor {
	return ConvKn2rowPar(in, w, bias, p, mul, 1)
}

// ConvKn2rowPar is ConvKn2row with the shifted-view gather parallelized
// across input channels (each channel writes an exclusive plane of the
// scratch buffer); the GEMM parallelism is whatever mul provides.
// Results are bit-identical at any worker count.
func ConvKn2rowPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvKn2row requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	spatial := os.H * os.W
	kArea := p.KernelH * p.KernelW

	// Regroup OIHW weights into per-offset (r,q) OC x C blocks.
	sub := make([]float32, kArea*p.OutChannels*s.C)
	for oc := 0; oc < p.OutChannels; oc++ {
		for c := 0; c < s.C; c++ {
			for r := 0; r < p.KernelH; r++ {
				for q := 0; q < p.KernelW; q++ {
					off := r*p.KernelW + q
					sub[off*p.OutChannels*s.C+oc*s.C+c] = w[((oc*s.C+c)*p.KernelH+r)*p.KernelW+q]
				}
			}
		}
	}

	shift := make([]float32, s.C*spatial)
	hw := s.H * s.W
	for n := 0; n < s.N; n++ {
		xs := in.Data()[n*s.C*hw : (n+1)*s.C*hw]
		res := make([]float32, p.OutChannels*spatial)
		for oc := 0; oc < p.OutChannels; oc++ {
			b := bias[oc]
			row := res[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] = b
			}
		}
		for r := 0; r < p.KernelH; r++ {
			for q := 0; q < p.KernelW; q++ {
				// Gather the shifted input view for offset (r,q).
				parFor(s.C, workers, func(c int) {
					xc := xs[c*hw : (c+1)*hw]
					base := c * spatial
					i := 0
					for y := 0; y < os.H; y++ {
						ih := y*p.StrideH + r - p.PadH
						for x := 0; x < os.W; x++ {
							iw := x*p.StrideW + q - p.PadW
							if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
								shift[base+i] = xc[ih*s.W+iw]
							} else {
								shift[base+i] = 0
							}
							i++
						}
					}
				})
				off := r*p.KernelW + q
				mul(p.OutChannels, spatial, s.C, sub[off*p.OutChannels*s.C:(off+1)*p.OutChannels*s.C], shift, res)
			}
		}
		copy(out.Data()[n*os.C*spatial:], res)
	}
	return out
}
