package kernels

import (
	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ConvTuned parameterizes the lowering-based convolution paths for the
// per-layer autotuner (internal/tune): how many output rows are lowered
// and multiplied per panel, the lowering fan-out, and the GEMM config
// (micro-kernel, cache blocking, worker override) for the panel
// multiplies. The zero value reproduces the default path: the whole
// lowered matrix materialized at once and multiplied by the default
// parallel GEMM.
type ConvTuned struct {
	// Panel is the number of output rows lowered and multiplied per
	// panel. Instead of materializing the full (C*KH*KW) x (OH*OW)
	// patch matrix — megabytes for real zoo shapes — the lowering runs
	// panel-by-panel so each panel and the GEMM's packed buffers stay
	// cache-resident. Panel tiling splits only the GEMM's n dimension:
	// every output element still accumulates its full k reduction in
	// one register sweep, so a panel-tiled conv is bit-identical to the
	// unpaneled one (given the same Block config). <= 0 disables
	// tiling.
	Panel int
	// Workers is the lowering/gather fan-out and the default GEMM strip
	// fan-out; <= 0 means 1.
	Workers int
	// Block configures the panel GEMMs (see gemm.BlockConfig). Its
	// Workers field, when set, overrides Workers for the GEMM only.
	Block gemm.BlockConfig
}

func (c ConvTuned) workers() int {
	if c.Workers <= 0 {
		return 1
	}
	return c.Workers
}

// mul returns the Gemm the panel multiplies run through.
func (c ConvTuned) mul() Gemm {
	w := c.workers()
	blk := c.Block
	return func(m, n, k int, a, b, cc []float32) {
		gemm.ParallelCfg(m, n, k, a, b, cc, w, blk)
	}
}

// panelRows resolves the panel height in output rows.
func (c ConvTuned) panelRows(oh int) int {
	if c.Panel <= 0 || c.Panel > oh {
		return oh
	}
	return c.Panel
}

// im2colRows writes the im2col lowering of output rows [y0, y1) into
// m: a (C*KH*KW) x ((y1-y0)*ow) matrix, column y*ow+x at offset
// (y-y0)*ow+x. Every entry is written (padding entries as zero), so a
// panel buffer can be reused across panels without clearing.
func im2colRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	cols := (y1 - y0) * ow
	hw := s.H * s.W
	xs := in.Data()[n*s.C*hw : (n+1)*s.C*hw]
	parFor(y1-y0, workers, func(yy int) {
		y := y0 + yy
		row := 0
		for c := 0; c < s.C; c++ {
			xc := xs[c*hw : (c+1)*hw]
			for r := 0; r < p.KernelH; r++ {
				ih := y*p.StrideH + r - p.PadH
				inRow := ih >= 0 && ih < s.H
				for q := 0; q < p.KernelW; q++ {
					base := row*cols + yy*ow
					for x := 0; x < ow; x++ {
						iw := x*p.StrideW + q - p.PadW
						if inRow && iw >= 0 && iw < s.W {
							m[base+x] = xc[ih*s.W+iw]
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

// im2rowRows writes the im2row lowering of output rows [y0, y1) into
// m: a ((y1-y0)*ow) x (C*KH*KW) matrix, patch y*ow+x at row
// (y-y0)*ow+x. Every entry is written, so the buffer reuses cleanly.
func im2rowRows(in *tensor.Tensor, n int, p nn.ConvParams, ow, y0, y1, workers int, m []float32) {
	s := in.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	hw := s.H * s.W
	xs := in.Data()[n*s.C*hw : (n+1)*s.C*hw]
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
							m[base+i] = xs[(c*s.H+ih)*s.W+iw]
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

// ConvIm2colTuned is ConvIm2colPar under a ConvTuned config: the
// lowering and GEMM run panel-by-panel over blocks of output rows, and
// the GEMM runs through cfg.Block. With a zero Block the result is
// bit-identical to ConvIm2colPar at any Panel and Workers setting —
// panel tiling splits output columns between GEMM calls without
// changing any element's accumulation order.
func ConvIm2colTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvIm2colTuned requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	workers := cfg.workers()
	mul := cfg.mul()
	panel := cfg.panelRows(os.H)
	cols := make([]float32, ckk*panel*os.W)
	pres := make([]float32, p.OutChannels*panel*os.W)
	for n := 0; n < s.N; n++ {
		dst := out.Data()[n*os.C*spatial:]
		for y0 := 0; y0 < os.H; y0 += panel {
			y1 := min(y0+panel, os.H)
			pcols := (y1 - y0) * os.W
			im2colRows(in, n, p, os.W, y0, y1, workers, cols)
			for oc := 0; oc < p.OutChannels; oc++ {
				b := bias[oc]
				row := pres[oc*pcols : (oc+1)*pcols]
				for i := range row {
					row[i] = b
				}
			}
			mul(p.OutChannels, pcols, ckk, w, cols, pres)
			for oc := 0; oc < p.OutChannels; oc++ {
				copy(dst[oc*spatial+y0*os.W:oc*spatial+y1*os.W], pres[oc*pcols:(oc+1)*pcols])
			}
		}
	}
	return out
}

// ConvIm2rowTuned is ConvIm2rowPar under a ConvTuned config, with the
// same panel-tiling contract as ConvIm2colTuned: panels split the
// GEMM's m dimension (patch rows), each output element keeps its full
// k reduction, so a zero Block is bit-identical to ConvIm2rowPar at
// any Panel and Workers setting.
func ConvIm2rowTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	if in.Layout() != tensor.NCHW {
		panic("kernels: ConvIm2rowTuned requires NCHW input")
	}
	s := in.Shape()
	checkConvArgs(s, w, bias, p)
	out := tensor.New(convOutShape(s, p.OutChannels, p), tensor.NCHW)
	os := out.Shape()
	ckk := s.C * p.KernelH * p.KernelW
	spatial := os.H * os.W
	workers := cfg.workers()
	mul := cfg.mul()
	panel := cfg.panelRows(os.H)
	wt := make([]float32, len(w))
	gemm.Transpose(p.OutChannels, ckk, w, wt)
	rows := make([]float32, panel*os.W*ckk)
	pres := make([]float32, panel*os.W*p.OutChannels)
	for n := 0; n < s.N; n++ {
		dst := out.Data()[n*os.C*spatial:]
		for y0 := 0; y0 < os.H; y0 += panel {
			y1 := min(y0+panel, os.H)
			prows := (y1 - y0) * os.W
			im2rowRows(in, n, p, os.W, y0, y1, workers, rows)
			for i := 0; i < prows; i++ {
				copy(pres[i*p.OutChannels:(i+1)*p.OutChannels], bias)
			}
			mul(prows, p.OutChannels, ckk, rows, wt, pres)
			for i := 0; i < prows; i++ {
				for oc := 0; oc < p.OutChannels; oc++ {
					dst[oc*spatial+y0*os.W+i] = pres[i*p.OutChannels+oc]
				}
			}
		}
	}
	return out
}

// ConvKn2rowTuned is ConvKn2rowPar under a ConvTuned config. Kn2row's
// lowering is already a sequence of rank-C GEMMs (one per kernel
// offset), so Panel has no effect here; the tunables are the gather
// fan-out and the GEMM config.
func ConvKn2rowTuned(in *tensor.Tensor, w, bias []float32, p nn.ConvParams, cfg ConvTuned) *tensor.Tensor {
	return ConvKn2rowPar(in, w, bias, p, cfg.mul(), cfg.workers())
}
