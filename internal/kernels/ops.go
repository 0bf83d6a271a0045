package kernels

import (
	"fmt"
	"math"

	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FCGemv computes a fully-connected layer as a dense GEMV (the
// cuBLAS-style batch-1 path). Weights are row-major (OutUnits x In).
func FCGemv(in *tensor.Tensor, w, bias []float32, outUnits int) *tensor.Tensor {
	s := in.Shape()
	inWidth := s.C * s.H * s.W
	if len(w) != outUnits*inWidth {
		panic(fmt.Sprintf("kernels: FC weights have %d elements, need %d", len(w), outUnits*inWidth))
	}
	if len(bias) != outUnits {
		panic("kernels: FC bias size mismatch")
	}
	out := tensor.New(tensor.Shape{N: s.N, C: outUnits, H: 1, W: 1}, tensor.NCHW)
	for n := 0; n < s.N; n++ {
		x := in.Data()[n*inWidth : (n+1)*inWidth]
		y := out.Data()[n*outUnits : (n+1)*outUnits]
		copy(y, bias)
		gemm.Gemv(outUnits, inWidth, w, x, y)
	}
	return out
}

// strides returns the element strides of the n, c, h and w axes of t's
// data slice, so a kernel that preserves its input's layout can index
// the slice directly under either layout.
func strides(t *tensor.Tensor) (sn, sc, sh, sw int) {
	s := t.Shape()
	switch t.Layout() {
	case tensor.NCHW:
		return s.C * s.H * s.W, s.H * s.W, s.W, 1
	case tensor.NHWC:
		return s.H * s.W * s.C, 1, s.W * s.C, s.C
	default:
		panic("kernels: unknown layout " + t.Layout().String())
	}
}

// MaxPool computes spatial max pooling, preserving the input layout.
// Padded positions never win the max (they are treated as -inf).
func MaxPool(in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, s.C, p), in.Layout())
	os := out.Shape()
	x, y := in.Data(), out.Data()
	xn, xc, xh, xw := strides(in)
	yn, yc, yh, yw := strides(out)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			xp := x[n*xn+c*xc:]
			for oh := 0; oh < os.H; oh++ {
				for ow := 0; ow < os.W; ow++ {
					best := float32(math.Inf(-1))
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
							if v := xp[ih*xh+iw*xw]; v > best {
								best = v
							}
						}
					}
					y[n*yn+c*yc+oh*yh+ow*yw] = best
				}
			}
		}
	}
	return out
}

// AvgPool computes spatial average pooling, preserving the input
// layout and dividing by the full window area (Caffe convention).
func AvgPool(in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, s.C, p), in.Layout())
	os := out.Shape()
	area := float32(p.KernelH * p.KernelW)
	x, y := in.Data(), out.Data()
	xn, xc, xh, xw := strides(in)
	yn, yc, yh, yw := strides(out)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			xp := x[n*xn+c*xc:]
			for oh := 0; oh < os.H; oh++ {
				for ow := 0; ow < os.W; ow++ {
					var sum float32
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
							sum += xp[ih*xh+iw*xw]
						}
					}
					y[n*yn+c*yc+oh*yh+ow*yw] = sum / area
				}
			}
		}
	}
	return out
}

// ReLU applies max(0, x) element-wise, preserving layout.
func ReLU(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	d := out.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return out
}

// BatchNorm applies the inference-mode affine transform
// y = x*scale[c] + shift[c] per channel, preserving layout.
func BatchNorm(in *tensor.Tensor, scale, shift []float32) *tensor.Tensor {
	s := in.Shape()
	if len(scale) != s.C || len(shift) != s.C {
		panic("kernels: batch-norm parameter size mismatch")
	}
	out := tensor.New(s, in.Layout())
	x, y := in.Data(), out.Data()
	if in.Layout() == tensor.NHWC {
		scale, shift = scale[:s.C], shift[:s.C]
		for i := 0; i < len(y); i += s.C {
			xp, yp := x[i:i+s.C], y[i:i+s.C]
			for c := range yp {
				yp[c] = xp[c]*scale[c] + shift[c]
			}
		}
		return out
	}
	hw := s.H * s.W
	for i := 0; i < len(y); i += hw {
		c := i / hw % s.C
		sc, sh := scale[c], shift[c]
		xp, yp := x[i:i+hw], y[i:i+hw]
		for j := range yp {
			yp[j] = xp[j]*sc + sh
		}
	}
	return out
}

// LRN applies AlexNet-style cross-channel local response
// normalization with window size, alpha 1e-4, beta 0.75, k 1.
func LRN(in *tensor.Tensor, size int) *tensor.Tensor {
	const (
		alpha = 1e-4
		beta  = 0.75
		k     = 1.0
	)
	s := in.Shape()
	out := tensor.New(s, in.Layout())
	x, y := in.Data(), out.Data()
	sn, sc, sh, sw := strides(in)
	half := size / 2
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				px := n*sn + h*sh + w*sw
				for c := 0; c < s.C; c++ {
					var sq float64
					for j := c - half; j <= c+half; j++ {
						if j < 0 || j >= s.C {
							continue
						}
						v := float64(x[px+j*sc])
						sq += v * v
					}
					denom := math.Pow(k+alpha*sq/float64(size), beta)
					y[px+c*sc] = float32(float64(x[px+c*sc]) / denom)
				}
			}
		}
	}
	return out
}

// Softmax normalizes each sample's values into probabilities over the
// channel axis (numerically stabilized by max subtraction).
func Softmax(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(s, in.Layout())
	x, y := in.Data(), out.Data()
	sn, sc, sh, sw := strides(in)
	exps := make([]float64, s.C)
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				px := n*sn + h*sh + w*sw
				maxv := float64(math.Inf(-1))
				for c := 0; c < s.C; c++ {
					if v := float64(x[px+c*sc]); v > maxv {
						maxv = v
					}
				}
				var sum float64
				for c := 0; c < s.C; c++ {
					e := math.Exp(float64(x[px+c*sc]) - maxv)
					exps[c] = e
					sum += e
				}
				for c := 0; c < s.C; c++ {
					y[px+c*sc] = float32(exps[c] / sum)
				}
			}
		}
	}
	return out
}

// Concat concatenates the inputs along the channel axis. All inputs
// must share N/H/W and layout; the output uses the first input's layout.
func Concat(ins []*tensor.Tensor) *tensor.Tensor {
	if len(ins) == 0 {
		panic("kernels: Concat needs at least one input")
	}
	first := ins[0].Shape()
	total := 0
	for _, in := range ins {
		s := in.Shape()
		if s.N != first.N || s.H != first.H || s.W != first.W {
			panic("kernels: Concat inputs have incompatible shapes")
		}
		if in.Layout() != ins[0].Layout() {
			panic("kernels: Concat inputs must share a layout")
		}
		total += s.C
	}
	out := tensor.New(tensor.Shape{N: first.N, C: total, H: first.H, W: first.W}, ins[0].Layout())
	y := out.Data()
	// Each input is a run of equal blocks — one per sample in NCHW, one
	// per pixel in NHWC — that lands at channel offset base of the
	// matching output block.
	blocks, unit := first.N, first.H*first.W
	if out.Layout() == tensor.NHWC {
		blocks, unit = first.N*first.H*first.W, 1
	}
	base := 0
	for _, in := range ins {
		x, size := in.Data(), in.Shape().C*unit
		for b := 0; b < blocks; b++ {
			dst := (b*total + base) * unit
			copy(y[dst:dst+size], x[b*size:(b+1)*size])
		}
		base += in.Shape().C
	}
	return out
}

// EltwiseAdd adds two tensors of identical shape element-wise.
func EltwiseAdd(a, b *tensor.Tensor) *tensor.Tensor {
	if !a.Shape().Equal(b.Shape()) {
		panic("kernels: EltwiseAdd shape mismatch")
	}
	bb := b.ToLayout(a.Layout())
	out := a.Clone()
	d, e := out.Data(), bb.Data()
	for i := range d {
		d[i] += e[i]
	}
	return out
}

// Flatten reshapes an activation into N x (CHW) x 1 x 1, materializing
// NCHW order regardless of the input layout.
func Flatten(in *tensor.Tensor) *tensor.Tensor {
	nchw := in.ToLayout(tensor.NCHW)
	s := in.Shape()
	flat := tensor.Shape{N: s.N, C: s.C * s.H * s.W, H: 1, W: 1}
	d := make([]float32, len(nchw.Data()))
	copy(d, nchw.Data())
	return tensor.NewFrom(flat, tensor.NCHW, d)
}
