//! Minimal neural-network building blocks for the GCN-RL agent.
//!
//! No deep-learning framework is available offline, so this crate provides
//! exactly what the paper's actor–critic networks need (Fig. 3):
//!
//! * [`Linear`] — a dense layer with manual forward/backward passes; its
//!   parameter gradients sum over the rows of a stacked minibatch.
//! * [`Activation`] — ReLU and Tanh with their derivatives, in place (the
//!   ReLU mask is a branch-free select, so it vectorises).
//! * [`gcn_propagate`] / [`gcn_backprop`] — the Kipf–Welling propagation step
//!   `H' = Â H` over a fixed normalised adjacency (Eq. 4 of the paper), for
//!   every graph of a stacked minibatch; a sparse, column-chunked kernel
//!   with an AVX2 build picked at run time, bit-identical to the plain loop.
//! * [`Adam`] — the Adam optimiser, stepping a flat parameter slice in place.
//! * Xavier/Glorot initialisation seeded per layer for reproducibility.
//!
//! Networks are assembled in the `gcnrl` core crate; this crate is purely the
//! math.
//!
//! # Examples
//!
//! ```
//! use gcnrl_nn::{Activation, Linear, LinearGradients};
//! use gcnrl_linalg::Matrix;
//!
//! let layer = Linear::xavier(4, 8, 42);
//! let x = Matrix::filled(3, 4, 0.5);
//! let mut y = layer.forward(&x);
//! Activation::Relu.apply(&mut y);
//! assert_eq!(y.shape(), (3, 8));
//! let mut grads = LinearGradients::zeros(&layer);
//! layer.backward_params(&x, &Matrix::filled(3, 8, 1.0), &mut grads);
//! assert_eq!(grads.d_weight.shape(), (4, 8));
//! ```

mod activation;
mod adam;
mod gcn;
mod linear;

pub use activation::Activation;
pub use adam::Adam;
pub use gcn::{gcn_backprop, gcn_propagate};
pub use linear::{Linear, LinearGradients};
