//! # coic-vision
//!
//! Synthetic vision substrate for the CoIC reproduction: everything the
//! recognition task family needs, built from scratch.
//!
//! * [`image`] — grayscale rasters (the "camera frames"),
//! * [`scene`] — procedural object classes observed under controlled
//!   viewpoint/illumination/noise perturbations (the co-located-users
//!   redundancy structure the paper exploits),
//! * [`features`] — SimNet, a deterministic layered feature extractor whose
//!   final embedding is CoIC's recognition feature descriptor,
//! * [`hog`] — alternative extractors (HOG-style gradients, raw pooling)
//!   behind one [`hog::Extractor`] trait for the descriptor ablation,
//! * [`distance`] — the metrics the cache threshold is measured in,
//! * [`classify`] — the cloud-side recognition model (nearest centroid),
//! * [`eval`] — confusion matrices,
//! * [`cost`] — MAC-based compute cost model per execution tier.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod cost;
pub mod distance;
pub mod eval;
pub mod features;
pub mod hog;
pub mod image;
pub mod scene;

pub use classify::PrototypeClassifier;
pub use cost::{ComputeProfile, FULL_DNN_MACS};
pub use eval::ConfusionMatrix;
pub use features::{FeatureVec, SimNet, SimNetConfig};
pub use hog::{Extractor, HogExtractor, PoolExtractor};
pub use image::Image;
pub use scene::{gaussian, ObjectClass, SceneGenerator, ViewParams};
