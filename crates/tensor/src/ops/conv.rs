//! 2-D convolution over packed non-zero weight taps.

use super::parallel::{parallel_for_chunks, SendPtr};
use crate::packed::PackedConv;
use crate::{Result, Shape, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dParams {
    /// Spatial stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dParams {
    /// Stride-1 "same" convolution for odd kernel size `k`.
    pub fn same(k: usize) -> Self {
        Conv2dParams {
            stride: 1,
            padding: k / 2,
        }
    }

    /// Output spatial size for an input of size `i` and kernel size `k`.
    ///
    /// Returns 0 when the kernel does not fit.
    pub fn out_size(&self, i: usize, k: usize) -> usize {
        let padded = i + 2 * self.padding;
        if padded < k {
            0
        } else {
            (padded - k) / self.stride + 1
        }
    }
}

/// Direct 2-D convolution: input `[1, in_c, h, w]`, weights
/// `[out_c, in_c, kh, kw]`, optional per-output-channel bias.
///
/// Zero weights are skipped in the innermost accumulation, so pruned kernels
/// genuinely do less floating-point work — the same effect the paper relies
/// on from hardware weight-compression support (§III-A).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 operands,
/// [`TensorError::ShapeMismatch`] for channel disagreements, and
/// [`TensorError::Invalid`] when the batch dimension is not 1 or the bias
/// length is wrong.
pub fn conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let (out_c, oh, ow) = conv2d_out_dims(input, weights, bias, params)?;
    let mut out = Tensor::zeros(Shape::nchw(1, out_c, oh, ow));
    let ishape = input.shape();
    let packed = PackedConv::pack(weights)?;
    conv2d_accumulate(
        input.as_slice(),
        &packed,
        bias,
        params,
        (ishape.dim(2), ishape.dim(3), oh, ow),
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Validates conv2d operands and returns the output `(out_c, oh, ow)`.
fn conv2d_out_dims(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<(usize, usize, usize)> {
    let ishape = input.shape();
    let wshape = weights.shape();
    if ishape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: ishape.rank(),
        });
    }
    if wshape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: wshape.rank(),
        });
    }
    if ishape.dim(0) != 1 {
        return Err(TensorError::Invalid(
            "conv2d supports batch size 1 only".into(),
        ));
    }
    let (in_c, h, w) = (ishape.dim(1), ishape.dim(2), ishape.dim(3));
    let (out_c, w_in_c, kh, kw) = (wshape.dim(0), wshape.dim(1), wshape.dim(2), wshape.dim(3));
    if in_c != w_in_c {
        return Err(TensorError::ShapeMismatch {
            left: ishape.dims().to_vec(),
            right: wshape.dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::Invalid(format!(
                "bias length {} does not match {out_c} output channels",
                b.len()
            )));
        }
    }
    Ok((out_c, params.out_size(h, kh), params.out_size(w, kw)))
}

/// One output channel of the convolution, written into its `oh*ow` slice.
/// The per-element arithmetic (tap order, accumulation order, bias add)
/// is identical whether channels run serially or on worker threads, so
/// parallel and single-threaded execution are bit-identical — and packed
/// taps replay the dense scan's row-major order exactly, so packed and
/// dense execution are too.
pub(super) fn conv2d_channel(
    oc: usize,
    idata: &[f32],
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    space: (usize, usize, usize, usize),
    ochan: &mut [f32],
) {
    let (h, w, oh, ow) = space;
    let (stride, pad) = (params.stride, params.padding);
    let bias_v = bias.map_or(0.0, |b| b.as_slice()[oc]);
    // Interior output range: every tap of a `kh × kw` kernel lands inside
    // the unpadded input, so the per-tap boundary checks are provably
    // dead there and the inner loop drops them. Border pixels take the
    // checked loop. The pixel-outer traversal writes each output exactly
    // once (so callers need not pre-zero the buffer) and accumulates in
    // the same sequence the pre-pool kernel used — per-`ic` local sums
    // added in channel order, bias last — so no bits change.
    let (oy_lo, oy_hi) = interior_range(oh, h, packed.kh(), stride, pad);
    let (ox_lo, ox_hi) = interior_range(ow, w, packed.kw(), stride, pad);
    let in_c = packed.in_c();
    let finish = |total: f32| finish_bias(total, bias_v);
    // Boundary-checked fallback for border pixels.
    let checked =
        |oy: usize, ox: usize| -> f32 { conv2d_site(oc, idata, packed, params, (h, w), oy, ox) };
    // Interior pixels are register-blocked `LANES` wide: the per-pixel
    // accumulators are fully independent, so blocking amortizes group
    // lookups and loop control without touching any pixel's own
    // floating-point sequence.
    const LANES: usize = 4;
    for oy in 0..oh {
        let orow = oy * ow;
        if oy < oy_lo || oy >= oy_hi {
            for ox in 0..ow {
                ochan[orow + ox] = finish(checked(oy, ox));
            }
            continue;
        }
        for ox in 0..ox_lo {
            ochan[orow + ox] = finish(checked(oy, ox));
        }
        let row_in = (oy * stride - pad) * w;
        let mut ox = ox_lo;
        while ox + LANES <= ox_hi {
            let pixel = row_in + ox * stride - pad;
            let mut total = [0.0f32; LANES];
            for ic in 0..in_c {
                let taps = packed.group(oc, ic);
                if taps.is_empty() {
                    continue;
                }
                let p = ic * h * w + pixel;
                let mut acc = [0.0f32; LANES];
                for t in taps {
                    let off = p + t.r as usize * w + t.c as usize;
                    for (k, a) in acc.iter_mut().enumerate() {
                        // SAFETY: all `LANES` pixels lie in the interior
                        // (`ox + LANES <= ox_hi`), where `interior_range`
                        // bounds `iy < h`, `ix < w` for every tap (tap
                        // coords are `< kh × kw` by `PackedConv`
                        // construction) and the caller validated
                        // `idata.len() == in_c * h * w`.
                        *a += t.v * unsafe { *idata.get_unchecked(off + k * stride) };
                    }
                }
                for (t, a) in total.iter_mut().zip(acc) {
                    *t += a;
                }
            }
            for (k, t) in total.into_iter().enumerate() {
                ochan[orow + ox + k] = finish(t);
            }
            ox += LANES;
        }
        while ox < ox_hi {
            let p = row_in + ox * stride - pad;
            let mut total = 0.0f32;
            for ic in 0..in_c {
                let taps = packed.group(oc, ic);
                if taps.is_empty() {
                    continue;
                }
                let base = ic * h * w + p;
                let mut acc = 0.0f32;
                for t in taps {
                    // SAFETY: interior pixel — same invariant as the
                    // blocked loop above.
                    acc += t.v
                        * unsafe { *idata.get_unchecked(base + t.r as usize * w + t.c as usize) };
                }
                total += acc;
            }
            ochan[orow + ox] = finish(total);
            ox += 1;
        }
        for ox in ox_hi..ow {
            ochan[orow + ox] = finish(checked(oy, ox));
        }
    }
}

/// One output site of the convolution, boundary-checked: per input
/// channel, the packed taps accumulate in row-major kernel order into a
/// local sum, and the per-channel sums join in channel order — the same
/// sequence the interior fast path uses. Bias is excluded; callers apply
/// [`finish_bias`].
fn conv2d_site(
    oc: usize,
    idata: &[f32],
    packed: &PackedConv,
    params: Conv2dParams,
    hw: (usize, usize),
    oy: usize,
    ox: usize,
) -> f32 {
    let (h, w) = hw;
    let (stride, pad) = (params.stride, params.padding);
    let (iy0, ix0) = (oy * stride, ox * stride);
    let mut total = 0.0f32;
    for ic in 0..packed.in_c() {
        let taps = packed.group(oc, ic);
        if taps.is_empty() {
            continue;
        }
        let ibase = ic * h * w;
        let mut acc = 0.0f32;
        for t in taps {
            let iy = iy0 + t.r as usize;
            let ix = ix0 + t.c as usize;
            // Padding: translate to unpadded coordinates.
            if iy < pad || ix < pad {
                continue;
            }
            let iy = iy - pad;
            let ix = ix - pad;
            if iy >= h || ix >= w {
                continue;
            }
            acc += t.v * idata[ibase + iy * w + ix];
        }
        total += acc;
    }
    total
}

/// Matching the historical order exactly: bias joins the sum last, and a
/// zero bias performs no add at all (preserving even the sign of a
/// negative-zero total).
fn finish_bias(total: f32, bias_v: f32) -> f32 {
    if bias_v != 0.0 {
        total + bias_v
    } else {
        total
    }
}

/// Half-open output range `[lo, hi)` along one axis where a kernel of
/// size `k` stays fully inside the unpadded input of size `i` — i.e.
/// `o * stride - pad >= 0` and `o * stride - pad + k <= i` for every
/// output coordinate `o` in the range.
fn interior_range(out: usize, i: usize, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    let lo = pad.div_ceil(stride).min(out);
    let hi = if i + pad >= k {
        ((i + pad - k) / stride + 1).min(out)
    } else {
        lo
    };
    (lo, hi.max(lo))
}

/// Writes the convolution of `idata` with `packed` into `odata`,
/// distributing output channels over worker threads via
/// [`parallel_for_chunks`].
fn conv2d_accumulate(
    idata: &[f32],
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    space: (usize, usize, usize, usize),
    odata: &mut [f32],
) {
    let (_, _, oh, ow) = space;
    let chan = oh * ow;
    if chan == 0 {
        return;
    }
    let base = SendPtr(odata.as_mut_ptr());
    parallel_for_chunks(packed.out_c(), move |oc| {
        // SAFETY: chunk `oc` derives the disjoint per-channel slice
        // `odata[oc*chan .. (oc+1)*chan]`; the buffer outlives the call
        // because `parallel_for_chunks` blocks until all chunks finish.
        let ochan = unsafe { std::slice::from_raw_parts_mut(base.get().add(oc * chan), chan) };
        conv2d_channel(oc, idata, packed, bias, params, space, ochan);
    });
}

/// Validates a conv2d input/bias pair against packed weights and returns
/// the output spatial size `(oh, ow)`.
pub(super) fn conv2d_packed_dims(
    input: &Tensor,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<(usize, usize)> {
    let ishape = input.shape();
    if ishape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: ishape.rank(),
        });
    }
    if ishape.dim(0) != 1 {
        return Err(TensorError::Invalid(
            "conv2d supports batch size 1 only".into(),
        ));
    }
    if ishape.dim(1) != packed.in_c() {
        return Err(TensorError::ShapeMismatch {
            left: ishape.dims().to_vec(),
            right: vec![packed.out_c(), packed.in_c(), packed.kh(), packed.kw()],
        });
    }
    if let Some(b) = bias {
        if b.len() != packed.out_c() {
            return Err(TensorError::Invalid(format!(
                "bias length {} does not match {} output channels",
                b.len(),
                packed.out_c()
            )));
        }
    }
    Ok((
        params.out_size(ishape.dim(2), packed.kh()),
        params.out_size(ishape.dim(3), packed.kw()),
    ))
}

/// [`conv2d`] into a caller-provided output tensor, so a streaming runtime
/// can reuse activation buffers across frames instead of reallocating.
///
/// When [`TensorParallel`][crate::ops::TensorParallel] is configured with
/// more than one thread, output channels are distributed over the worker
/// pool. Each channel's slice is disjoint
/// and its arithmetic order unchanged, so results are bit-identical to
/// serial execution.
///
/// # Errors
///
/// All [`conv2d`] error conditions, plus [`TensorError::ShapeMismatch`]
/// when `out` does not have the expected output shape.
pub fn conv2d_into(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut Tensor,
) -> Result<()> {
    conv2d_out_dims(input, weights, bias, params)?;
    let packed = PackedConv::pack(weights)?;
    conv2d_packed_into(input, &packed, bias, params, out)
}

/// [`conv2d_into`] over weights packed once via [`PackedConv::pack`] —
/// the steady-state path: no weight scan, no allocation, reused output.
///
/// # Errors
///
/// All [`conv2d`] error conditions (shapes are validated against the
/// packed dimensions), plus [`TensorError::ShapeMismatch`] when `out`
/// does not have the expected output shape.
pub fn conv2d_packed_into(
    input: &Tensor,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut Tensor,
) -> Result<()> {
    let (oh, ow) = conv2d_packed_dims(input, packed, bias, params)?;
    let expected = [1, packed.out_c(), oh, ow];
    if out.shape().dims() != expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.to_vec(),
            right: out.shape().dims().to_vec(),
        });
    }
    let ishape = input.shape();
    let space = (ishape.dim(2), ishape.dim(3), oh, ow);
    // No pre-zeroing: `conv2d_channel` writes every output element.
    conv2d_accumulate(
        input.as_slice(),
        packed,
        bias,
        params,
        space,
        out.as_mut_slice(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn input_1ch(h: usize, w: usize, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::nchw(1, 1, h, w), data).unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let input = input_1ch(3, 3, (1..=9).map(|i| i as f32).collect());
        let mut weights = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        weights.set(&[0, 0, 1, 1], 1.0).unwrap();
        let out = conv2d(&input, &weights, None, Conv2dParams::same(3)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 3, 3]);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn box_filter_sums_neighbourhood() {
        let input = input_1ch(3, 3, vec![1.0; 9]);
        let weights = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let out = conv2d(&input, &weights, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice()[0], 9.0);
    }

    #[test]
    fn stride_reduces_output() {
        let input = input_1ch(5, 5, vec![1.0; 25]);
        let weights = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let out = conv2d(
            &input,
            &weights,
            None,
            Conv2dParams {
                stride: 2,
                padding: 0,
            },
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn padding_grows_output() {
        let input = input_1ch(3, 3, vec![1.0; 9]);
        let weights = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let out = conv2d(
            &input,
            &weights,
            None,
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 3, 3]);
        // Corner sees only a 2×2 patch of ones.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 4.0);
        // Centre sees the full 3×3 patch.
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn bias_added_per_channel() {
        let input = input_1ch(2, 2, vec![0.0; 4]);
        let weights = Tensor::zeros(Shape::nchw(2, 1, 1, 1));
        let bias = Tensor::from_vec(Shape::vector(2), vec![1.5, -2.5]).unwrap();
        let out = conv2d(&input, &weights, Some(&bias), Conv2dParams::default()).unwrap();
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 1.5);
        assert_eq!(out.get(&[0, 1, 0, 0]).unwrap(), -2.5);
    }

    #[test]
    fn multi_channel_accumulates() {
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![2.0, 3.0]).unwrap();
        let weights = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![10.0, 100.0]).unwrap();
        let out = conv2d(&input, &weights, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.as_slice(), &[320.0]);
    }

    #[test]
    fn pruned_weights_match_dense_with_zeros() {
        // A conv with explicitly-zeroed taps must equal the dense computation.
        let input = input_1ch(4, 4, (0..16).map(|i| i as f32 * 0.3).collect());
        let dense = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| {
            if i % 2 == 0 {
                (i as f32) * 0.1
            } else {
                0.0
            }
        });
        let out = conv2d(&input, &dense, None, Conv2dParams::same(3)).unwrap();
        // Recompute naively.
        let mut naive = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        for oy in 0..4i64 {
            for ox in 0..4i64 {
                let mut acc = 0.0;
                for r in 0..3i64 {
                    for c in 0..3i64 {
                        let iy = oy + r - 1;
                        let ix = ox + c - 1;
                        if (0..4).contains(&iy) && (0..4).contains(&ix) {
                            let wv = dense.get(&[0, 0, r as usize, c as usize]).unwrap();
                            let iv = input.get(&[0, 0, iy as usize, ix as usize]).unwrap();
                            acc += wv * iv;
                        }
                    }
                }
                naive.set(&[0, 0, oy as usize, ox as usize], acc).unwrap();
            }
        }
        assert!(out.max_abs_diff(&naive).unwrap() < 1e-5);
    }

    #[test]
    fn rejects_bad_shapes() {
        let input = Tensor::zeros(Shape::nchw(2, 1, 3, 3));
        let weights = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(conv2d(&input, &weights, None, Conv2dParams::default()).is_err());

        let input = Tensor::zeros(Shape::nchw(1, 2, 3, 3));
        assert!(conv2d(&input, &weights, None, Conv2dParams::default()).is_err());

        let input = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        let bad_bias = Tensor::zeros(Shape::vector(5));
        assert!(conv2d(&input, &weights, Some(&bad_bias), Conv2dParams::default()).is_err());
    }

    #[test]
    fn out_size_handles_non_fitting_kernel() {
        let p = Conv2dParams::default();
        assert_eq!(p.out_size(2, 3), 0);
        assert_eq!(p.out_size(3, 3), 1);
        assert_eq!(Conv2dParams::same(3).out_size(7, 3), 7);
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        // 1×1 convolution = per-pixel linear map over channels (the PFN case).
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weights = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![0.5, 0.25]).unwrap();
        let out = conv2d(&input, &weights, None, Conv2dParams::default()).unwrap();
        assert!(approx_eq(
            out.get(&[0, 0, 0, 0]).unwrap(),
            0.5 * 1.0 + 0.25 * 3.0,
            1e-6
        ));
        assert!(approx_eq(
            out.get(&[0, 0, 0, 1]).unwrap(),
            0.5 * 2.0 + 0.25 * 4.0,
            1e-6
        ));
    }
}
