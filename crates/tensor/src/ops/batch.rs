//! Batched execution: the N-dimension of the compute stack.
//!
//! The kernels here run a *batch* of same-shaped frames through the
//! single-frame convolution while amortizing the per-call fixed work
//! (weight-tap extraction) across the batch. The per-frame arithmetic —
//! tap order, accumulation order, bias add — is exactly the single-frame
//! kernel's, so batched and serial execution are **bit-identical** frame
//! by frame; the property tests and the streaming bit-identity suite
//! assert it.
//!
//! Batches are slices of per-frame tensors rather than one `[N, C, H, W]`
//! tensor: the streaming runtime admits frames individually, fuses them
//! for the backbone pass, then splits them again for per-frame decode, so
//! per-frame buffers avoid a gather/scatter copy on both ends.

use crate::ops::conv::{conv2d_channel, conv2d_packed_dims, Conv2dParams};
use crate::ops::parallel::{parallel_for_chunks, SendPtr};
use crate::packed::PackedConv;
use crate::{Result, Tensor, TensorError};

/// Checks a batch is non-empty and its inputs share one shape.
fn check_uniform_batch(inputs: &[&Tensor]) -> Result<()> {
    let first = inputs
        .first()
        .ok_or_else(|| TensorError::Invalid("batched op needs at least one frame".into()))?;
    for t in &inputs[1..] {
        if t.shape() != first.shape() {
            return Err(TensorError::ShapeMismatch {
                left: first.shape().dims().to_vec(),
                right: t.shape().dims().to_vec(),
            });
        }
    }
    Ok(())
}

/// Batched [`conv2d_into`][crate::ops::conv2d_into]: runs every frame of
/// `inputs` (each `[1, in_c, h, w]`, all the same shape) against one
/// weight tensor, writing into caller-provided per-frame outputs so the
/// streaming runtime can reuse activation buffers across batches.
///
/// The non-zero weight taps of each `(out_c, in_c)` kernel are extracted
/// **once** and reused for every frame. Per frame, the tap visit order
/// and accumulation order are identical to the single-frame kernel, so
/// each output equals `conv2d(inputs[i], …)` bit for bit.
///
/// # Errors
///
/// All single-frame `conv2d` error conditions, plus
/// [`TensorError::ShapeMismatch`] when the frames disagree in shape or
/// `outs` disagrees in length or any output tensor has the wrong shape,
/// and [`TensorError::Invalid`] on an empty batch.
pub fn conv2d_batch_into(
    inputs: &[&Tensor],
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    outs: &mut [Tensor],
) -> Result<()> {
    let wshape = weights.shape();
    if wshape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: wshape.rank(),
        });
    }
    let packed = PackedConv::pack(weights)?;
    conv2d_packed_batch_into(inputs, &packed, bias, params, outs)
}

/// [`conv2d_batch_into`] over weights packed once via
/// [`PackedConv::pack`] — the steady-state batched path: no weight scan,
/// no allocation, reused per-frame outputs. Frames are distributed over
/// worker threads; each frame's arithmetic is exactly the single-frame
/// kernel's, so results stay bit-identical at any thread count.
///
/// # Errors
///
/// All [`conv2d_batch_into`] error conditions (shapes validated against
/// the packed dimensions).
pub fn conv2d_packed_batch_into(
    inputs: &[&Tensor],
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    outs: &mut [Tensor],
) -> Result<()> {
    check_uniform_batch(inputs)?;
    let (oh, ow) = conv2d_packed_dims(inputs[0], packed, bias, params)?;
    let out_c = packed.out_c();
    if outs.len() != inputs.len() {
        return Err(TensorError::Invalid(format!(
            "batched conv2d got {} inputs but {} outputs",
            inputs.len(),
            outs.len()
        )));
    }
    let expected = [1, out_c, oh, ow];
    for out in outs.iter() {
        if out.shape().dims() != expected {
            return Err(TensorError::ShapeMismatch {
                left: expected.to_vec(),
                right: out.shape().dims().to_vec(),
            });
        }
    }
    let ishape = inputs[0].shape();
    let space = (ishape.dim(2), ishape.dim(3), oh, ow);
    // No pre-zeroing: `conv2d_channel` writes every output element.
    let chan = oh * ow;
    if chan == 0 {
        return Ok(());
    }
    let base = SendPtr(outs.as_mut_ptr());
    parallel_for_chunks(inputs.len(), move |f| {
        // SAFETY: frame `f` exclusively owns `outs[f]`; the slice outlives
        // the call because `parallel_for_chunks` blocks until done.
        let out = unsafe { &mut *base.get().add(f) };
        let idata = inputs[f].as_slice();
        let odata = out.as_mut_slice();
        for oc in 0..out_c {
            let ochan = &mut odata[oc * chan..(oc + 1) * chan];
            conv2d_channel(oc, idata, packed, bias, params, space, ochan);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv2d;
    use crate::Shape;
    use rand::{rngs::StdRng, SeedableRng};

    fn frames(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::uniform(Shape::nchw(1, c, h, w), -1.0, 1.0, &mut rng))
            .collect()
    }

    #[test]
    fn batched_conv_matches_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let weights = Tensor::uniform(Shape::nchw(3, 2, 3, 3), -0.5, 0.5, &mut rng);
        let bias = Tensor::uniform(Shape::vector(3), -0.1, 0.1, &mut rng);
        let inputs = frames(4, 2, 6, 5, 11);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let p = Conv2dParams::same(3);
        let mut batched: Vec<Tensor> = (0..4)
            .map(|_| Tensor::zeros(Shape::nchw(1, 3, 6, 5)))
            .collect();
        conv2d_batch_into(&refs, &weights, Some(&bias), p, &mut batched).unwrap();
        for (b, x) in batched.iter().zip(&inputs) {
            let serial = conv2d(x, &weights, Some(&bias), p).unwrap();
            assert_eq!(b.as_slice(), serial.as_slice());
        }
    }

    #[test]
    fn batched_conv_rejects_mixed_shapes_and_empty_batches() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        let b = Tensor::zeros(Shape::nchw(1, 1, 5, 5));
        let w = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        let p = Conv2dParams::default();
        let mut outs = vec![Tensor::zeros(Shape::nchw(1, 1, 2, 2)); 2];
        assert!(conv2d_batch_into(&[&a, &b], &w, None, p, &mut outs).is_err());
        assert!(conv2d_batch_into(&[], &w, None, p, &mut []).is_err());
    }

    #[test]
    fn batched_conv_into_reuses_buffers_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = Tensor::uniform(Shape::nchw(2, 1, 3, 3), -0.5, 0.5, &mut rng);
        let p = Conv2dParams::same(3);
        let mut outs: Vec<Tensor> = (0..2)
            .map(|_| Tensor::zeros(Shape::nchw(1, 2, 4, 4)))
            .collect();
        for seed in 0..3 {
            let inputs = frames(2, 1, 4, 4, seed);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            conv2d_batch_into(&refs, &weights, None, p, &mut outs).unwrap();
            for (out, x) in outs.iter().zip(&inputs) {
                let serial = conv2d(x, &weights, None, p).unwrap();
                assert_eq!(out.as_slice(), serial.as_slice(), "seed {seed}");
            }
        }
    }
}
