//! Neural-network compute kernels over [`crate::Tensor`].
//!
//! Each operation takes NCHW activations (batch 1 per frame — single-frame
//! AV inference) and reports enough cost metadata for the hardware model:
//! multiply-accumulate counts that honour weight sparsity, mirroring how a
//! structured-sparsity runtime skips zero weights. The `conv2d_*batch_into`
//! kernels run a slice of same-shaped frames through one convolution
//! invocation, amortizing per-call fixed work while staying bit-identical
//! per frame.

mod activation;
mod batch;
mod conv;
mod linear;
mod norm;
mod parallel;
mod pool;

pub use activation::{leaky_relu, relu, relu_into, sigmoid};
pub use batch::{conv2d_batch_into, conv2d_packed_batch_into};
pub use conv::{conv2d, conv2d_into, conv2d_packed_into, Conv2dParams};
pub use linear::{linear, linear_into};
pub use norm::{batch_norm, batch_norm_into, BatchNormParams};
pub use parallel::{parallel_for_chunks, ChunkPanic, TensorParallel};
pub use pool::{avg_pool2d, max_pool2d, max_pool2d_into};
