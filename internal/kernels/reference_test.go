package kernels

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The bit-exact oracle: a reference implementation of each kernel
// that reads and writes every tensor through Tensor.At/Set, in loop
// nests that spell out each output element's sequence of float32
// operations. bitexact_test.go holds the production kernels, whose loop
// nests are free, to these with math.Float32bits — a tolerance would
// let a reordered sum through.

func refConvDirectPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvDirect requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	kArea := p.KernelH * p.KernelW
	parFor(s.N*os.C, workers, func(j int) {
		n, oc := j/os.C, j%os.C
		wBase := oc * s.C * kArea
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				sum := bias[oc]
				for c := 0; c < s.C; c++ {
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
							sum += w[wBase+c*kArea+r*p.KernelW+q] * in.At(n, c, ih, iw)
						}
					}
				}
				out.Set(n, oc, oh, ow, sum)
			}
		}
	})
	return out
}

func refConvDirectNHWCPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NHWC {
		panic("kernels: ConvDirectNHWC requires NHWC input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NHWC)
	os := out.Shape()
	kArea := p.KernelH * p.KernelW
	parFor(s.N*os.H, workers, func(j int) {
		n, oh := j/os.H, j%os.H
		for ow := 0; ow < os.W; ow++ {
			for oc := 0; oc < os.C; oc++ {
				sum := bias[oc]
				wBase := oc * s.C * kArea
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
						for c := 0; c < s.C; c++ {
							sum += w[wBase+c*kArea+r*p.KernelW+q] * in.At(n, c, ih, iw)
						}
					}
				}
				out.Set(n, oc, oh, ow, sum)
			}
		}
	})
	return out
}

func refDepthwiseDirectPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
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
	parFor(s.N*s.C, workers, func(j int) {
		n, c := j/s.C, j%s.C
		wBase := c * kArea
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				sum := bias[c]
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
						sum += w[wBase+r*p.KernelW+q] * in.At(n, c, ih, iw)
					}
				}
				out.Set(n, c, oh, ow, sum)
			}
		}
	})
	return out
}

func refDepthwiseNHWCPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
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
	parFor(s.N*os.H, workers, func(j int) {
		n, oh := j/os.H, j%os.H
		for ow := 0; ow < os.W; ow++ {
			for c := 0; c < s.C; c++ {
				sum := bias[c]
				wBase := c * kArea
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
						sum += w[wBase+r*p.KernelW+q] * in.At(n, c, ih, iw)
					}
				}
				out.Set(n, c, oh, ow, sum)
			}
		}
	})
	return out
}

func refMaxPool(in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, s.C, p), in.Layout())
	os := out.Shape()
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
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
							if v := in.At(n, c, ih, iw); v > best {
								best = v
							}
						}
					}
					out.Set(n, c, oh, ow, best)
				}
			}
		}
	}
	return out
}

func refAvgPool(in *tensor.Tensor, p nn.ConvParams) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(convOutShape(s, s.C, p), in.Layout())
	os := out.Shape()
	area := float32(p.KernelH * p.KernelW)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
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
							sum += in.At(n, c, ih, iw)
						}
					}
					out.Set(n, c, oh, ow, sum/area)
				}
			}
		}
	}
	return out
}

func refBatchNorm(in *tensor.Tensor, scale, shift []float32) *tensor.Tensor {
	s := in.Shape()
	if len(scale) != s.C || len(shift) != s.C {
		panic("kernels: batch-norm parameter size mismatch")
	}
	out := tensor.New(s, in.Layout())
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					out.Set(n, c, h, w, in.At(n, c, h, w)*scale[c]+shift[c])
				}
			}
		}
	}
	return out
}

func refLRN(in *tensor.Tensor, size int) *tensor.Tensor {
	const (
		alpha = 1e-4
		beta  = 0.75
		k     = 1.0
	)
	s := in.Shape()
	out := tensor.New(s, in.Layout())
	half := size / 2
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				for c := 0; c < s.C; c++ {
					var sq float64
					for j := c - half; j <= c+half; j++ {
						if j < 0 || j >= s.C {
							continue
						}
						v := float64(in.At(n, j, h, w))
						sq += v * v
					}
					denom := math.Pow(k+alpha*sq/float64(size), beta)
					out.Set(n, c, h, w, float32(float64(in.At(n, c, h, w))/denom))
				}
			}
		}
	}
	return out
}

func refSoftmax(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(s, in.Layout())
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				maxv := float64(math.Inf(-1))
				for c := 0; c < s.C; c++ {
					if v := float64(in.At(n, c, h, w)); v > maxv {
						maxv = v
					}
				}
				var sum float64
				exps := make([]float64, s.C)
				for c := 0; c < s.C; c++ {
					e := math.Exp(float64(in.At(n, c, h, w)) - maxv)
					exps[c] = e
					sum += e
				}
				for c := 0; c < s.C; c++ {
					out.Set(n, c, h, w, float32(exps[c]/sum))
				}
			}
		}
	}
	return out
}

func refConcat(ins []*tensor.Tensor) *tensor.Tensor {
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
	base := 0
	for _, in := range ins {
		s := in.Shape()
		for n := 0; n < s.N; n++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						out.Set(n, base+c, h, w, in.At(n, c, h, w))
					}
				}
			}
		}
		base += s.C
	}
	return out
}

func refConvGroupedDirectPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvGroupedDirect requires NCHW input")
	}
	s := in.Shape()
	if err := checkGroupedArgs(s, w, bias, p); err != nil {
		panic(err.Error())
	}
	g := p.GroupCount()
	if g == 1 {
		return refConvDirectPar(in, w, bias, p, workers)
	}
	inPerG, outPerG := s.C/g, p.OutChannels/g
	kArea := p.KernelH * p.KernelW
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	parFor(s.N*p.OutChannels, workers, func(j int) {
		n, oc := j/p.OutChannels, j%p.OutChannels
		grp := oc / outPerG
		wBase := oc * inPerG * kArea
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				sum := bias[oc]
				for cLocal := 0; cLocal < inPerG; cLocal++ {
					c := grp*inPerG + cLocal
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
							sum += w[wBase+cLocal*kArea+r*p.KernelW+q] * in.At(n, c, ih, iw)
						}
					}
				}
				out.Set(n, oc, oh, ow, sum)
			}
		}
	})
	return out
}

func refSliceChannels(in *tensor.Tensor, from, to int) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(tensor.Shape{N: s.N, C: to - from, H: s.H, W: s.W}, tensor.NCHW)
	for n := 0; n < s.N; n++ {
		for c := from; c < to; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					out.Set(n, c-from, h, w, in.At(n, c, h, w))
				}
			}
		}
	}
	return out
}

func refConvGroupedIm2colPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvGroupedIm2col requires NCHW input")
	}
	s := in.Shape()
	if err := checkGroupedArgs(s, w, bias, p); err != nil {
		panic(err.Error())
	}
	g := p.GroupCount()
	if g == 1 {
		return ConvIm2colPar(in, w, bias, p, mul, workers)
	}
	inPerG, outPerG := s.C/g, p.OutChannels/g
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	spatial := os.H * os.W
	kArea := p.KernelH * p.KernelW
	sub := p
	sub.OutChannels = outPerG
	sub.Groups = 1
	parFor(g, workers, func(grp int) {
		gin := refSliceChannels(in, grp*inPerG, (grp+1)*inPerG)
		gw := w[grp*outPerG*inPerG*kArea : (grp+1)*outPerG*inPerG*kArea]
		gb := bias[grp*outPerG : (grp+1)*outPerG]
		gout := ConvIm2col(gin, gw, gb, sub, mul)
		for n := 0; n < s.N; n++ {
			src := gout.Data()[n*outPerG*spatial:]
			dst := out.Data()[n*os.C*spatial+grp*outPerG*spatial:]
			copy(dst[:outPerG*spatial], src[:outPerG*spatial])
		}
	})
	return out
}

func refConvWinogradPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvWinograd requires NCHW input")
	}
	if p.KernelH != 3 || p.KernelW != 3 || p.StrideH != 1 || p.StrideW != 1 {
		panic("kernels: ConvWinograd supports only 3x3 stride-1 convolutions")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()

	// Filter transform U = G g G^T, one 4x4 block per (oc, c).
	// G = [1 0 0; .5 .5 .5; .5 -.5 .5; 0 0 1]
	u := make([]float32, p.OutChannels*s.C*16)
	for oc := 0; oc < p.OutChannels; oc++ {
		for c := 0; c < s.C; c++ {
			g := w[(oc*s.C+c)*9 : (oc*s.C+c)*9+9]
			// t = G * g  (4x3)
			var t [12]float32
			for col := 0; col < 3; col++ {
				g0, g1, g2 := g[col], g[3+col], g[6+col]
				t[col] = g0
				t[3+col] = 0.5 * (g0 + g1 + g2)
				t[6+col] = 0.5 * (g0 - g1 + g2)
				t[9+col] = g2
			}
			// U = t * G^T (4x4)
			dst := u[(oc*s.C+c)*16:]
			for row := 0; row < 4; row++ {
				a, b2, c2 := t[row*3], t[row*3+1], t[row*3+2]
				dst[row*4] = a
				dst[row*4+1] = 0.5 * (a + b2 + c2)
				dst[row*4+2] = 0.5 * (a - b2 + c2)
				dst[row*4+3] = c2
			}
		}
	}

	tilesH := (os.H + 1) / 2
	tilesW := (os.W + 1) / 2
	parFor(s.N*p.OutChannels, workers, func(j int) {
		n, oc := j/p.OutChannels, j%p.OutChannels
		var d, v, m [16]float32
		{
			for ty := 0; ty < tilesH; ty++ {
				for tx := 0; tx < tilesW; tx++ {
					for i := range m {
						m[i] = 0
					}
					for c := 0; c < s.C; c++ {
						// Load the 4x4 input tile (zero padded).
						for y := 0; y < 4; y++ {
							ih := ty*2 + y - p.PadH
							for x := 0; x < 4; x++ {
								iw := tx*2 + x - p.PadW
								if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
									d[y*4+x] = in.At(n, c, ih, iw)
								} else {
									d[y*4+x] = 0
								}
							}
						}
						// V = B^T d B with
						// B^T = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1]
						var tmp [16]float32
						for col := 0; col < 4; col++ {
							d0, d1, d2, d3 := d[col], d[4+col], d[8+col], d[12+col]
							tmp[col] = d0 - d2
							tmp[4+col] = d1 + d2
							tmp[8+col] = d2 - d1
							tmp[12+col] = d1 - d3
						}
						for row := 0; row < 4; row++ {
							t0, t1, t2, t3 := tmp[row*4], tmp[row*4+1], tmp[row*4+2], tmp[row*4+3]
							v[row*4] = t0 - t2
							v[row*4+1] = t1 + t2
							v[row*4+2] = t2 - t1
							v[row*4+3] = t1 - t3
						}
						// M += U ⊙ V
						ub := u[(oc*s.C+c)*16:]
						for i := 0; i < 16; i++ {
							m[i] += ub[i] * v[i]
						}
					}
					// Y = A^T M A with A^T = [1 1 1 0; 0 1 -1 -1]
					var rows [8]float32
					for col := 0; col < 4; col++ {
						m0, m1, m2, m3 := m[col], m[4+col], m[8+col], m[12+col]
						rows[col] = m0 + m1 + m2
						rows[4+col] = m1 - m2 - m3
					}
					var y00, y01, y10, y11 float32
					y00 = rows[0] + rows[1] + rows[2]
					y01 = rows[1] - rows[2] - rows[3]
					y10 = rows[4] + rows[5] + rows[6]
					y11 = rows[5] - rows[6] - rows[7]

					oy, ox := ty*2, tx*2
					out.Set(n, oc, oy, ox, y00+bias[oc])
					if ox+1 < os.W {
						out.Set(n, oc, oy, ox+1, y01+bias[oc])
					}
					if oy+1 < os.H {
						out.Set(n, oc, oy+1, ox, y10+bias[oc])
						if ox+1 < os.W {
							out.Set(n, oc, oy+1, ox+1, y11+bias[oc])
						}
					}
				}
			}
		}
	})
	return out
}

func refIm2colPar(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	s := in.Shape()
	rows := s.C * p.KernelH * p.KernelW
	cols := oh * ow
	m := make([]float32, rows*cols)
	parFor(oh, workers, func(y int) {
		row := 0
		for c := 0; c < s.C; c++ {
			for r := 0; r < p.KernelH; r++ {
				ih := y*p.StrideH + r - p.PadH
				for q := 0; q < p.KernelW; q++ {
					if ih >= 0 && ih < s.H {
						base := row*cols + y*ow
						for x := 0; x < ow; x++ {
							iw := x*p.StrideW + q - p.PadW
							if iw >= 0 && iw < s.W {
								m[base+x] = in.At(n, c, ih, iw)
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

func refIm2rowPar(in *tensor.Tensor, n int, p nn.ConvParams, oh, ow, workers int) []float32 {
	s := in.Shape()
	cols := s.C * p.KernelH * p.KernelW
	m := make([]float32, oh*ow*cols)
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
							m[base+i] = in.At(n, c, ih, iw)
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

func refConvKn2rowPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, mul Gemm, workers int) *tensor.Tensor {
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
	for n := 0; n < s.N; n++ {
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
					base := c * spatial
					i := 0
					for y := 0; y < os.H; y++ {
						ih := y*p.StrideH + r - p.PadH
						for x := 0; x < os.W; x++ {
							iw := x*p.StrideW + q - p.PadW
							if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
								shift[base+i] = in.At(n, c, ih, iw)
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

func refIm2colRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	cols := (y1 - y0) * ow
	parFor(y1-y0, workers, func(yy int) {
		y := y0 + yy
		row := 0
		for c := 0; c < s.C; c++ {
			for r := 0; r < p.KernelH; r++ {
				ih := y*p.StrideH + r - p.PadH
				inRow := ih >= 0 && ih < s.H
				for q := 0; q < p.KernelW; q++ {
					base := row*cols + yy*ow
					for x := 0; x < ow; x++ {
						iw := x*p.StrideW + q - p.PadW
						if inRow && iw >= 0 && iw < s.W {
							m[base+x] = in.At(n, c, ih, iw)
						} else {
							m[base+x] = 0
						}
					}
					row++
				}
			}
		}
	})
}

func refIm2rowRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	parFor(y1-y0, workers, func(yy int) {
		y := y0 + yy
		for x := 0; x < ow; x++ {
			base := (yy*ow + x) * ckk
			i := 0
			for c := 0; c < s.C; c++ {
				for r := 0; r < p.KernelH; r++ {
					ih := y*p.StrideH + r - p.PadH
					for q := 0; q < p.KernelW; q++ {
						iw := x*p.StrideW + q - p.PadW
						if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
							m[base+i] = in.At(n, c, ih, iw)
						} else {
							m[base+i] = 0
						}
						i++
					}
				}
			}
		}
	})
}

func refFFT2D(re, im []float64, n int, inv bool) {
	// Rows.
	for r := 0; r < n; r++ {
		fft(re[r*n:(r+1)*n], im[r*n:(r+1)*n], inv)
	}
	// Columns (gather/scatter through a scratch line).
	colRe := make([]float64, n)
	colIm := make([]float64, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			colRe[r], colIm[r] = re[r*n+c], im[r*n+c]
		}
		fft(colRe, colIm, inv)
		for r := 0; r < n; r++ {
			re[r*n+c], im[r*n+c] = colRe[r], colIm[r]
		}
	}
}

func refConvFFTPar(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, workers int) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvFFT requires NCHW input")
	}
	if p.StrideH != 1 || p.StrideW != 1 {
		panic("kernels: ConvFFT supports only stride-1 convolutions")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()

	// Grid large enough for the padded input and the linear (not
	// circular) correlation tail.
	n := nextPow2(maxOf(s.H+2*p.PadH, s.W+2*p.PadW, os.H+p.KernelH, os.W+p.KernelW))
	grid := n * n

	// Pre-transform every input channel once per sample.
	for b := 0; b < s.N; b++ {
		inRe := make([][]float64, s.C)
		inIm := make([][]float64, s.C)
		parFor(s.C, workers, func(c int) {
			re := make([]float64, grid)
			im := make([]float64, grid)
			for h := 0; h < s.H; h++ {
				for x := 0; x < s.W; x++ {
					re[(h+p.PadH)*n+(x+p.PadW)] = float64(in.At(b, c, h, x))
				}
			}
			refFFT2D(re, im, n, false)
			inRe[c], inIm[c] = re, im
		})

		parChunks(p.OutChannels, workers, func(lo, hi int) {
			kRe := make([]float64, grid)
			kIm := make([]float64, grid)
			accRe := make([]float64, grid)
			accIm := make([]float64, grid)
			for oc := lo; oc < hi; oc++ {
				for i := range accRe {
					accRe[i], accIm[i] = 0, 0
				}
				for c := 0; c < s.C; c++ {
					// Flipped kernel makes the circular convolution a
					// correlation.
					for i := range kRe {
						kRe[i], kIm[i] = 0, 0
					}
					for r := 0; r < p.KernelH; r++ {
						for q := 0; q < p.KernelW; q++ {
							v := float64(w[((oc*s.C+c)*p.KernelH+r)*p.KernelW+q])
							rr := (n - r) % n
							qq := (n - q) % n
							kRe[rr*n+qq] = v
						}
					}
					refFFT2D(kRe, kIm, n, false)
					ir, ii := inRe[c], inIm[c]
					for i := 0; i < grid; i++ {
						accRe[i] += ir[i]*kRe[i] - ii[i]*kIm[i]
						accIm[i] += ir[i]*kIm[i] + ii[i]*kRe[i]
					}
				}
				refFFT2D(accRe, accIm, n, true)
				for oh := 0; oh < os.H; oh++ {
					for ow := 0; ow < os.W; ow++ {
						out.Set(b, oc, oh, ow, float32(accRe[oh*n+ow])+bias[oc])
					}
				}
			}
		})
	}
	return out
}

func refMulMat(m *CSR, n int, b, c []float32) {
	if len(b) < m.Cols*n || len(c) < m.Rows*n {
		panic("kernels: CSR MulMat operand too short")
	}
	for i := 0; i < m.Rows; i++ {
		crow := c[i*n : i*n+n]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			v := m.Values[k]
			brow := b[int(m.ColIdx[k])*n : int(m.ColIdx[k])*n+n]
			for j := range crow {
				crow[j] += v * brow[j]
			}
		}
	}
}
