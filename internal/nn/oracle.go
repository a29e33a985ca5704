package nn

import "mgdiffnet/internal/tensor"

// The direct convolution loops below are the correctness oracle of the
// im2col+GEMM lowering that every Conv2D, ConvTranspose2D and Conv3D layer
// runs. No layer calls them: the tests compare each layer's Forward and
// Backward against them, and the lowering ablation benchmarks time them.
// Each reads the layer's weights and biases, writes a fresh output, and
// the Backward forms accumulate into the layer's parameter gradients
// exactly like the layer does.

// Conv2DDirect computes c's forward pass on x by the direct 2D loops.
func Conv2DDirect(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho, wo := c.OutSize(h), c.OutSize(w)
	out := tensor.New(n, c.OutChannels, ho, wo)
	k, s, p := c.Kernel, c.Stride, c.Pad
	wd, xd, od, bd := c.W.Data.Data, x.Data, out.Data, c.B.Data.Data

	tensor.ParallelFor(n*c.OutChannels, func(job int) {
		bn := job / c.OutChannels
		co := job % c.OutChannels
		outBase := (bn*c.OutChannels + co) * ho * wo
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				acc := bd[co]
				iy0 := oy*s - p
				ix0 := ox*s - p
				for cin := 0; cin < ci; cin++ {
					wBase := ((co*ci + cin) * k) * k
					xBase := (bn*ci + cin) * h * w
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						rowW := wBase + ky*k
						rowX := xBase + iy*w
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += wd[rowW+kx] * xd[rowX+ix]
						}
					}
				}
				od[outBase+oy*wo+ox] = acc
			}
		}
	})
	return out
}

// Conv2DDirectBackward computes c's backward pass for input x and output
// gradient grad by the direct 2D loops and returns the input gradient.
func Conv2DDirectBackward(c *Conv2D, x, grad *tensor.Tensor) *tensor.Tensor {
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho, wo := grad.Dim(2), grad.Dim(3)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels

	gd, xd, wd := grad.Data, x.Data, c.W.Data.Data
	gw := c.W.Grad.Data
	biasGrad(c.B.Grad.Data, gd, n, co, ho*wo)

	// Weight gradient: parallel over (co, ci) pairs so accumulation is
	// race-free.
	tensor.ParallelFor(co*ci, func(job int) {
		oc := job / ci
		cin := job % ci
		wBase := ((oc*ci + cin) * k) * k
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				acc := 0.0
				for bn := 0; bn < n; bn++ {
					gBase := (bn*co + oc) * ho * wo
					xBase := (bn*ci + cin) * h * w
					for oy := 0; oy < ho; oy++ {
						iy := oy*s - p + ky
						if iy < 0 || iy >= h {
							continue
						}
						gRow := gBase + oy*wo
						xRow := xBase + iy*w
						for ox := 0; ox < wo; ox++ {
							ix := ox*s - p + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += gd[gRow+ox] * xd[xRow+ix]
						}
					}
				}
				gw[wBase+ky*k+kx] += acc
			}
		}
	})

	// Input gradient: gather formulation, parallel over (n, ci).
	gin := tensor.New(n, ci, h, w)
	gi := gin.Data
	tensor.ParallelFor(n*ci, func(job int) {
		bn := job / ci
		cin := job % ci
		inBase := (bn*ci + cin) * h * w
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				acc := 0.0
				for oc := 0; oc < co; oc++ {
					wBase := ((oc*ci + cin) * k) * k
					gBase := (bn*co + oc) * ho * wo
					for ky := 0; ky < k; ky++ {
						oyNum := iy + p - ky
						if oyNum < 0 || oyNum%s != 0 {
							continue
						}
						oy := oyNum / s
						if oy >= ho {
							continue
						}
						for kx := 0; kx < k; kx++ {
							oxNum := ix + p - kx
							if oxNum < 0 || oxNum%s != 0 {
								continue
							}
							ox := oxNum / s
							if ox >= wo {
								continue
							}
							acc += wd[wBase+ky*k+kx] * gd[gBase+oy*wo+ox]
						}
					}
				}
				gi[inBase+iy*w+ix] = acc
			}
		}
	})
	return gin
}

// ConvTranspose2DDirect computes c's forward pass on x by the direct
// gather loops.
func ConvTranspose2DDirect(c *ConvTranspose2D, x *tensor.Tensor) *tensor.Tensor {
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho, wo := c.OutSize(h), c.OutSize(w)
	out := tensor.New(n, c.OutChannels, ho, wo)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	wd, xd, od, bd := c.W.Data.Data, x.Data, out.Data, c.B.Data.Data

	// Gather form: out[n,oc,oy,ox] = b + sum over (ci,ky,kx) with
	// iy = (oy+p-ky)/s when divisible. Race-free parallel over (n, oc).
	tensor.ParallelFor(n*co, func(job int) {
		bn := job / co
		oc := job % co
		outBase := (bn*co + oc) * ho * wo
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				acc := bd[oc]
				for cin := 0; cin < ci; cin++ {
					wBase := ((cin*co + oc) * k) * k
					xBase := (bn*ci + cin) * h * w
					for ky := 0; ky < k; ky++ {
						iyNum := oy + p - ky
						if iyNum < 0 || iyNum%s != 0 {
							continue
						}
						iy := iyNum / s
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ixNum := ox + p - kx
							if ixNum < 0 || ixNum%s != 0 {
								continue
							}
							ix := ixNum / s
							if ix >= w {
								continue
							}
							acc += wd[wBase+ky*k+kx] * xd[xBase+iy*w+ix]
						}
					}
				}
				od[outBase+oy*wo+ox] = acc
			}
		}
	})
	return out
}

// ConvTranspose2DDirectBackward computes c's backward pass for input x and
// output gradient grad by the direct loops and returns the input gradient.
func ConvTranspose2DDirectBackward(c *ConvTranspose2D, x, grad *tensor.Tensor) *tensor.Tensor {
	n, ci, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho, wo := grad.Dim(2), grad.Dim(3)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	gd, xd, wd := grad.Data, x.Data, c.W.Data.Data
	gw := c.W.Grad.Data
	biasGrad(c.B.Grad.Data, gd, n, co, ho*wo)

	// Weight gradient, race-free over (ci, co).
	tensor.ParallelFor(ci*co, func(job int) {
		cin := job / co
		oc := job % co
		wBase := ((cin*co + oc) * k) * k
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				acc := 0.0
				for bn := 0; bn < n; bn++ {
					xBase := (bn*ci + cin) * h * w
					gBase := (bn*co + oc) * ho * wo
					for iy := 0; iy < h; iy++ {
						oy := iy*s - p + ky
						if oy < 0 || oy >= ho {
							continue
						}
						xRow := xBase + iy*w
						gRow := gBase + oy*wo
						for ix := 0; ix < w; ix++ {
							ox := ix*s - p + kx
							if ox < 0 || ox >= wo {
								continue
							}
							acc += xd[xRow+ix] * gd[gRow+ox]
						}
					}
				}
				gw[wBase+ky*k+kx] += acc
			}
		}
	})

	// Input gradient: a plain strided correlation of grad with W.
	gin := tensor.New(n, ci, h, w)
	gi := gin.Data
	tensor.ParallelFor(n*ci, func(job int) {
		bn := job / ci
		cin := job % ci
		inBase := (bn*ci + cin) * h * w
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				acc := 0.0
				for oc := 0; oc < co; oc++ {
					wBase := ((cin*co + oc) * k) * k
					gBase := (bn*co + oc) * ho * wo
					for ky := 0; ky < k; ky++ {
						oy := iy*s - p + ky
						if oy < 0 || oy >= ho {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ox := ix*s - p + kx
							if ox < 0 || ox >= wo {
								continue
							}
							acc += wd[wBase+ky*k+kx] * gd[gBase+oy*wo+ox]
						}
					}
				}
				gi[inBase+iy*w+ix] = acc
			}
		}
	})
	return gin
}

// Conv3DDirect computes c's forward pass on x by the direct 7-deep loops.
func Conv3DDirect(c *Conv3D, x *tensor.Tensor) *tensor.Tensor {
	n, ci, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	do, ho, wo := c.OutSize(d), c.OutSize(h), c.OutSize(w)
	out := tensor.New(n, c.OutChannels, do, ho, wo)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	wd, xd, od, bd := c.W.Data.Data, x.Data, out.Data, c.B.Data.Data

	tensor.ParallelFor(n*co, func(job int) {
		bn := job / co
		oc := job % co
		outBase := (bn*co + oc) * do * ho * wo
		for oz := 0; oz < do; oz++ {
			iz0 := oz*s - p
			for oy := 0; oy < ho; oy++ {
				iy0 := oy*s - p
				for ox := 0; ox < wo; ox++ {
					ix0 := ox*s - p
					acc := bd[oc]
					for cin := 0; cin < ci; cin++ {
						wBase := (((oc*ci + cin) * k) * k) * k
						xBase := (bn*ci + cin) * d * h * w
						for kz := 0; kz < k; kz++ {
							iz := iz0 + kz
							if iz < 0 || iz >= d {
								continue
							}
							for ky := 0; ky < k; ky++ {
								iy := iy0 + ky
								if iy < 0 || iy >= h {
									continue
								}
								rowW := wBase + (kz*k+ky)*k
								rowX := xBase + (iz*h+iy)*w
								for kx := 0; kx < k; kx++ {
									ix := ix0 + kx
									if ix < 0 || ix >= w {
										continue
									}
									acc += wd[rowW+kx] * xd[rowX+ix]
								}
							}
						}
					}
					od[outBase+(oz*ho+oy)*wo+ox] = acc
				}
			}
		}
	})
	return out
}

// Conv3DDirectBackward computes c's backward pass for input x and output
// gradient grad by the direct loops and returns the input gradient.
func Conv3DDirectBackward(c *Conv3D, x, grad *tensor.Tensor) *tensor.Tensor {
	n, ci, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	do, ho, wo := grad.Dim(2), grad.Dim(3), grad.Dim(4)
	k, s, p := c.Kernel, c.Stride, c.Pad
	co := c.OutChannels
	gd, xd, wd := grad.Data, x.Data, c.W.Data.Data
	gw := c.W.Grad.Data
	biasGrad(c.B.Grad.Data, gd, n, co, do*ho*wo)

	tensor.ParallelFor(co*ci, func(job int) {
		oc := job / ci
		cin := job % ci
		wBase := (((oc*ci + cin) * k) * k) * k
		for kz := 0; kz < k; kz++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					acc := 0.0
					for bn := 0; bn < n; bn++ {
						gBase := (bn*co + oc) * do * ho * wo
						xBase := (bn*ci + cin) * d * h * w
						for oz := 0; oz < do; oz++ {
							iz := oz*s - p + kz
							if iz < 0 || iz >= d {
								continue
							}
							for oy := 0; oy < ho; oy++ {
								iy := oy*s - p + ky
								if iy < 0 || iy >= h {
									continue
								}
								gRow := gBase + (oz*ho+oy)*wo
								xRow := xBase + (iz*h+iy)*w
								for ox := 0; ox < wo; ox++ {
									ix := ox*s - p + kx
									if ix < 0 || ix >= w {
										continue
									}
									acc += gd[gRow+ox] * xd[xRow+ix]
								}
							}
						}
					}
					gw[wBase+(kz*k+ky)*k+kx] += acc
				}
			}
		}
	})

	gin := tensor.New(n, ci, d, h, w)
	gi := gin.Data
	tensor.ParallelFor(n*ci, func(job int) {
		bn := job / ci
		cin := job % ci
		inBase := (bn*ci + cin) * d * h * w
		for iz := 0; iz < d; iz++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					acc := 0.0
					for oc := 0; oc < co; oc++ {
						wBase := (((oc*ci + cin) * k) * k) * k
						gBase := (bn*co + oc) * do * ho * wo
						for kz := 0; kz < k; kz++ {
							ozNum := iz + p - kz
							if ozNum < 0 || ozNum%s != 0 {
								continue
							}
							oz := ozNum / s
							if oz >= do {
								continue
							}
							for ky := 0; ky < k; ky++ {
								oyNum := iy + p - ky
								if oyNum < 0 || oyNum%s != 0 {
									continue
								}
								oy := oyNum / s
								if oy >= ho {
									continue
								}
								for kx := 0; kx < k; kx++ {
									oxNum := ix + p - kx
									if oxNum < 0 || oxNum%s != 0 {
										continue
									}
									ox := oxNum / s
									if ox >= wo {
										continue
									}
									acc += wd[wBase+(kz*k+ky)*k+kx] * gd[gBase+(oz*ho+oy)*wo+ox]
								}
							}
						}
					}
					gi[inBase+(iz*h+iy)*w+ix] = acc
				}
			}
		}
	})
	return gin
}
