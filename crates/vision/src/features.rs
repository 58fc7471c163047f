//! "SimNet": a deterministic, layered feature extractor.
//!
//! CoIC treats the recognition DNN as a black box with two relevant
//! behaviours: (1) it maps an input image to a feature vector whose pairwise
//! distance reflects input similarity (the paper uses "the feature vector
//! generated from the input image as the feature descriptor"), and (2) full
//! inference has a cost worth offloading. SimNet supplies both, from
//! scratch:
//!
//! * a mean-pooling front end over a `G × G` grid (translation-robust,
//!   contrast-normalized),
//! * a stack of fixed, seeded random-projection layers with a `tanh`
//!   nonlinearity (Johnson–Lindenstrauss-style distance preservation),
//! * an L2-normalized output embedding.
//!
//! Every layer's activation is exposed, which the fine-grained layer-cache
//! extension (paper §4, "the result of a specific DNN layer") builds on.

use crate::image::Image;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A dense feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVec {
    data: Vec<f32>,
}

impl FeatureVec {
    /// Wrap raw components.
    pub fn new(data: Vec<f32>) -> Self {
        FeatureVec { data }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Components.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Return a unit-norm copy (zero vectors are returned unchanged).
    pub fn normalized(&self) -> FeatureVec {
        let n = self.l2_norm();
        if n == 0.0 {
            return self.clone();
        }
        FeatureVec {
            data: self.data.iter().map(|x| x / n).collect(),
        }
    }

    /// Size on the wire: 4 bytes per component plus a small header. This is
    /// what the client uploads instead of the full image — the asymmetry
    /// that makes CoIC's descriptor-first protocol cheap.
    pub fn byte_size(&self) -> u64 {
        4 * self.data.len() as u64 + 16
    }
}

/// Architecture of a SimNet instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimNetConfig {
    /// Pooling grid side; the front end produces `grid * grid` features.
    pub grid: u32,
    /// Output width of each projection layer, in order.
    pub layer_dims: Vec<usize>,
    /// Seed from which all layer weights are derived.
    pub weight_seed: u64,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        SimNetConfig {
            grid: 8,
            layer_dims: vec![64, 48, 32],
            weight_seed: 0x51A4_E7B1,
        }
    }
}

/// A fixed-weight feature extractor.
///
/// Each layer's weights are drawn row-major (output by output) and stored
/// input-major. Every output's sum still starts at 0.0 and adds its terms
/// `w · x[i]` in ascending input order, so an activation has the same bits
/// as the row-major single-chain loop (DESIGN.md §3.2).
///
/// # Examples
/// ```
/// use coic_vision::{ObjectClass, SceneGenerator, SimNet};
///
/// let net = SimNet::default_net();
/// let gen = SceneGenerator::new(64);
/// let descriptor = net.extract(&gen.canonical(ObjectClass(3)));
/// // Descriptors are unit-norm and deterministic across nodes.
/// assert!((descriptor.l2_norm() - 1.0).abs() < 1e-5);
/// assert_eq!(descriptor, SimNet::default_net().extract(&gen.canonical(ObjectClass(3))));
/// ```
pub struct SimNet {
    config: SimNetConfig,
    /// weights[l] is layer `l`'s (out_dim × in_dim) matrix stored
    /// input-major: weight (o, i) at `[i * out_dim + o]`.
    weights: Vec<Vec<f32>>,
    dims: Vec<usize>, // dims[0] = grid², dims[l+1] = layer_dims[l]
}

/// Layer `l`'s weights as drawn from the config's seed: a row-major
/// (out_dim × in_dim) matrix, output by output.
fn drawn_weights(config: &SimNetConfig, dims: &[usize], l: usize) -> Vec<f32> {
    let (fan_in, fan_out) = (dims[l], dims[l + 1]);
    let mut rng = StdRng::seed_from_u64(config.weight_seed.wrapping_add(l as u64 * 7919));
    let scale = (1.0 / fan_in as f32).sqrt();
    (0..fan_in * fan_out)
        .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale * 1.7320508) // uniform, matched variance
        .collect()
}

/// A row-major (out × `fan_in`) matrix stored input-major.
fn input_major(w: &[f32], fan_in: usize) -> Vec<f32> {
    (0..fan_in)
        .flat_map(|i| w.iter().skip(i).step_by(fan_in).copied())
        .collect()
}

impl SimNet {
    /// Build the network, deriving every weight deterministically from the
    /// config seed. Two SimNets with the same config are identical — this
    /// is what lets the client, the edge and the cloud agree on
    /// descriptors without exchanging a model.
    pub fn new(config: SimNetConfig) -> Self {
        assert!(config.grid >= 2, "pooling grid must be at least 2x2");
        assert!(!config.layer_dims.is_empty(), "need at least one layer");
        let mut dims = vec![(config.grid * config.grid) as usize];
        dims.extend(config.layer_dims.iter().copied());
        let weights = (0..config.layer_dims.len())
            .map(|l| input_major(&drawn_weights(&config, &dims, l), dims[l]))
            .collect();
        SimNet {
            config,
            weights,
            dims,
        }
    }

    /// Build with default architecture.
    pub fn default_net() -> Self {
        SimNet::new(SimNetConfig::default())
    }

    /// The default network, built once per process: every holder of it
    /// would derive the same weights, so they share one copy.
    pub fn shared_default() -> Arc<SimNet> {
        static NET: OnceLock<Arc<SimNet>> = OnceLock::new();
        NET.get_or_init(|| Arc::new(SimNet::default_net())).clone()
    }

    /// The architecture.
    pub fn config(&self) -> &SimNetConfig {
        &self.config
    }

    /// Number of projection layers (excludes the pooling front end).
    pub fn num_layers(&self) -> usize {
        self.config.layer_dims.len()
    }

    /// Output embedding dimensionality.
    pub fn embedding_dim(&self) -> usize {
        *self.dims.last().unwrap()
    }

    /// Pool the image to the `grid × grid` front-end features, with
    /// per-image contrast normalization (zero mean, unit variance) so the
    /// embedding is robust to illumination gain — the perturbation
    /// co-located users differ by.
    pub fn pool(&self, img: &Image) -> FeatureVec {
        let g = self.config.grid;
        let (w, h) = (img.width(), img.height());
        let cell_w = w as f64 / g as f64;
        let cell_h = h as f64 / g as f64;
        // Cell `c` of an axis covers [c0, c1): at least one pixel, clipped
        // to the image.
        let span = |c: u32, cell: f64, len: u32| {
            let c0 = (c as f64 * cell) as u32;
            let c1 = (((c + 1) as f64 * cell) as u32).min(len);
            (c0 as usize, c1.max(c0 + 1).min(len) as usize)
        };
        let columns: Vec<_> = (0..g).map(|gx| span(gx, cell_w, w)).collect();
        let mut feats = Vec::with_capacity((g * g) as usize);
        let mut sums = vec![0u64; g as usize];
        for gy in 0..g {
            // A grid row's cells, one image row at a time. Pixel sums are
            // integers, exact in any order, so each cell's mean is the
            // per-cell loop's to the bit.
            let (y0, y1) = span(gy, cell_h, h);
            sums.fill(0);
            for row in img.pixels().chunks_exact(w as usize).take(y1).skip(y0) {
                for (sum, &(x0, x1)) in sums.iter_mut().zip(&columns) {
                    *sum += row[x0..x1].iter().map(|&p| p as u64).sum::<u64>();
                }
            }
            for (&sum, &(x0, x1)) in sums.iter().zip(&columns) {
                let n = ((y1 - y0) * (x1 - x0)) as f64;
                feats.push((sum as f64 / n) as f32);
            }
        }
        // Contrast-normalize.
        let mean = feats.iter().sum::<f32>() / feats.len() as f32;
        let var = feats.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / feats.len() as f32;
        let std = var.sqrt().max(1e-6);
        FeatureVec::new(feats.into_iter().map(|x| (x - mean) / std).collect())
    }

    fn forward_layer(&self, l: usize, input: &FeatureVec) -> FeatureVec {
        let fan_in = self.dims[l];
        let fan_out = self.dims[l + 1];
        assert_eq!(input.dim(), fan_in, "layer {l} input dim mismatch");
        // One input into every output's sum at a time: each sum starts at
        // 0.0 and adds `w · x[i]` in ascending `i`, the row-major loop's
        // order, but the `fan_out` sums are independent chains.
        let mut acc = vec![0.0f32; fan_out];
        for (&x, w) in input
            .as_slice()
            .iter()
            .zip(self.weights[l].chunks_exact(fan_out))
        {
            for (a, &w) in acc.iter_mut().zip(w) {
                *a += w * x;
            }
        }
        FeatureVec::new(acc.into_iter().map(f32::tanh).collect())
    }

    /// Run the full network, returning every intermediate activation:
    /// element 0 is the pooled front end, element `k` (1-based) the output
    /// of projection layer `k`. The final element is L2-normalized — it is
    /// *the* feature descriptor CoIC ships to the edge.
    pub fn extract_layers(&self, img: &Image) -> Vec<FeatureVec> {
        let mut acts = vec![self.pool(img)];
        for l in 0..self.num_layers() {
            let next = self.forward_layer(l, acts.last().unwrap());
            acts.push(next);
        }
        let last = acts.last_mut().unwrap();
        *last = last.normalized();
        acts
    }

    /// Run the full network and return only the final embedding.
    pub fn extract(&self, img: &Image) -> FeatureVec {
        self.extract_layers(img).pop().unwrap()
    }

    /// Resume the forward pass from the activation of layer `k` (as indexed
    /// in [`SimNet::extract_layers`]); used by the fine-grained layer cache
    /// to reuse a cached prefix.
    pub fn extract_from_layer(&self, k: usize, activation: &FeatureVec) -> FeatureVec {
        assert!(k <= self.num_layers(), "layer index out of range");
        assert_eq!(activation.dim(), self.dims[k], "activation dim mismatch");
        let mut cur = activation.clone();
        for l in k..self.num_layers() {
            cur = self.forward_layer(l, &cur);
        }
        cur.normalized()
    }

    /// Multiply–accumulate count of the pooling front end for an image.
    pub fn pool_flops(&self, img: &Image) -> u64 {
        (img.width() as u64) * (img.height() as u64)
    }

    /// MAC count of projection layer `l` (0-based).
    pub fn layer_flops(&self, l: usize) -> u64 {
        (self.dims[l] * self.dims[l + 1]) as u64 * 2
    }

    /// Total MAC count for a full extraction on `img`.
    pub fn total_flops(&self, img: &Image) -> u64 {
        self.pool_flops(img)
            + (0..self.num_layers())
                .map(|l| self.layer_flops(l))
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{ObjectClass, SceneGenerator, ViewParams};
    use rand::{RngExt, SeedableRng};

    fn dist(a: &FeatureVec, b: &FeatureVec) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }

    /// The parent's per-cell pool, the definition [`SimNet::pool`] must
    /// reproduce bit for bit: each cell's pixels summed in row-major order.
    fn pool_reference(net: &SimNet, img: &Image) -> FeatureVec {
        let g = net.config.grid;
        let cell_w = img.width() as f64 / g as f64;
        let cell_h = img.height() as f64 / g as f64;
        let mut feats = Vec::with_capacity((g * g) as usize);
        for gy in 0..g {
            for gx in 0..g {
                let x0 = (gx as f64 * cell_w) as u32;
                let y0 = (gy as f64 * cell_h) as u32;
                let x1 = (((gx + 1) as f64 * cell_w) as u32).min(img.width());
                let y1 = (((gy + 1) as f64 * cell_h) as u32).min(img.height());
                let mut acc = 0.0f64;
                let mut n = 0u32;
                for y in y0..y1.max(y0 + 1).min(img.height()) {
                    for x in x0..x1.max(x0 + 1).min(img.width()) {
                        acc += img.get(x, y) as f64;
                        n += 1;
                    }
                }
                feats.push(if n > 0 { (acc / n as f64) as f32 } else { 0.0 });
            }
        }
        let mean = feats.iter().sum::<f32>() / feats.len() as f32;
        let var = feats.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / feats.len() as f32;
        let std = var.sqrt().max(1e-6);
        FeatureVec::new(feats.into_iter().map(|x| (x - mean) / std).collect())
    }

    /// The parent's layer: one sum per output over its row of the drawn
    /// row-major matrix, a single chain in ascending input order.
    fn forward_reference(net: &SimNet, l: usize, input: &FeatureVec) -> FeatureVec {
        let (fan_in, fan_out) = (net.dims[l], net.dims[l + 1]);
        let w = drawn_weights(&net.config, &net.dims, l);
        let x = input.as_slice();
        let mut out = Vec::with_capacity(fan_out);
        for o in 0..fan_out {
            let row = &w[o * fan_in..(o + 1) * fan_in];
            let mut acc = 0.0f32;
            for i in 0..fan_in {
                acc += row[i] * x[i];
            }
            out.push(acc.tanh());
        }
        FeatureVec::new(out)
    }

    fn bits(v: &FeatureVec) -> Vec<u32> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Demand the references' bits from `extract_layers` at every layer and
    /// from `extract_from_layer` resumed at every layer.
    fn assert_descriptor_identical(case: &str, net: &SimNet, img: &Image) {
        let mut reference = vec![pool_reference(net, img)];
        for l in 0..net.num_layers() {
            let next = forward_reference(net, l, reference.last().unwrap());
            reference.push(next);
        }
        let last = reference.last_mut().unwrap();
        *last = last.normalized();
        let layers = net.extract_layers(img);
        assert_eq!(layers.len(), reference.len());
        for (k, (got, want)) in layers.iter().zip(&reference).enumerate() {
            assert_eq!(bits(got), bits(want), "{case}: activation {k} differs");
        }
        for (k, act) in reference.iter().enumerate() {
            let mut want = act.clone();
            for l in k..net.num_layers() {
                want = forward_reference(net, l, &want);
            }
            let got = net.extract_from_layer(k, act);
            assert_eq!(
                bits(&got),
                bits(&want.normalized()),
                "{case}: resumed at {k}"
            );
        }
    }

    /// The default network and small ones with grids 3, 5 and 8 and layer
    /// widths that fill no vector.
    fn test_nets() -> Vec<SimNet> {
        let mut nets = vec![SimNet::default_net()];
        for (i, grid) in [3, 5, 8].into_iter().enumerate() {
            for dims in [vec![5, 7, 3], vec![13, 1, 9, 6]] {
                nets.push(SimNet::new(SimNetConfig {
                    grid,
                    layer_dims: dims,
                    weight_seed: 0xD15C ^ i as u64,
                }));
            }
        }
        nets
    }

    /// The `i`-th seeded frame: side 8, 32, 50 (uneven cells), 64 or 96.
    fn seeded_frame(i: u32, rng: &mut StdRng) -> Image {
        let side = [8, 32, 50, 64, 96][i as usize % 5];
        let view = ViewParams::jittered(rng, 0.35, [0.0, 4.0, 16.0][i as usize / 5 % 3]);
        SceneGenerator::new(side).observe(ObjectClass(i % 1_000), &view, rng)
    }

    #[test]
    fn descriptors_are_bit_identical_to_the_single_chain_loops() {
        let nets = test_nets();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..30 {
            let img = seeded_frame(i, &mut rng);
            for (j, net) in nets.iter().enumerate() {
                assert_descriptor_identical(&format!("frame {i}, net {j}"), net, &img);
            }
        }
        // Images narrower or shorter than the grid: cells of one pixel,
        // clipped to the edge.
        for (w, h) in [(1, 1), (2, 7), (3, 13), (7, 2), (13, 5)] {
            let img = Image::from_fn(w, h, |_, _| rng.random());
            for (j, net) in nets.iter().enumerate() {
                assert_descriptor_identical(&format!("{w} × {h}, net {j}"), net, &img);
            }
        }
    }

    /// 20 000 seeded frames through every test network, ≈ 5 s in release;
    /// CI's identity soak runs it.
    #[test]
    #[ignore = "long identity soak; run with --release -- --ignored"]
    fn soak_descriptors_are_bit_identical_over_20k_frames() {
        let nets = test_nets();
        let mut rng = StdRng::seed_from_u64(0x50AC);
        for i in 0..20_000 {
            let img = seeded_frame(i, &mut rng);
            let j = i as usize % nets.len();
            assert_descriptor_identical(&format!("frame {i}, net {j}"), &nets[j], &img);
        }
        println!("20000 descriptors identical");
    }

    #[test]
    fn deterministic_across_instances() {
        let g = SceneGenerator::new(64);
        let img = g.canonical(ObjectClass(5));
        let a = SimNet::default_net().extract(&img);
        let b = SimNet::default_net().extract(&img);
        assert_eq!(a, b);
    }

    #[test]
    fn output_is_unit_norm() {
        let g = SceneGenerator::new(64);
        let net = SimNet::default_net();
        for c in 0..5 {
            let e = net.extract(&g.canonical(ObjectClass(c)));
            assert!((e.l2_norm() - 1.0).abs() < 1e-5);
            assert_eq!(e.dim(), net.embedding_dim());
        }
    }

    #[test]
    fn intra_class_closer_than_inter_class() {
        let g = SceneGenerator::new(64);
        let net = SimNet::default_net();
        let mut rng = StdRng::seed_from_u64(11);
        let classes = 8;
        let views = 6;
        let mut embeds: Vec<Vec<FeatureVec>> = Vec::new();
        for c in 0..classes {
            let mut per = Vec::new();
            for _ in 0..views {
                let v = ViewParams::jittered(&mut rng, 0.08, 4.0);
                per.push(net.extract(&g.observe(ObjectClass(c), &v, &mut rng)));
            }
            embeds.push(per);
        }
        let mut intra = (0.0f64, 0u64);
        let mut inter = (0.0f64, 0u64);
        for c in 0..classes as usize {
            for i in 0..views {
                for j in (i + 1)..views {
                    intra.0 += dist(&embeds[c][i], &embeds[c][j]) as f64;
                    intra.1 += 1;
                }
            }
            for c2 in (c + 1)..classes as usize {
                for i in 0..views {
                    for j in 0..views {
                        inter.0 += dist(&embeds[c][i], &embeds[c2][j]) as f64;
                        inter.1 += 1;
                    }
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f64;
        let inter_mean = inter.0 / inter.1 as f64;
        assert!(
            inter_mean > 2.0 * intra_mean,
            "separation too weak: intra {intra_mean:.3} inter {inter_mean:.3}"
        );
    }

    #[test]
    fn illumination_invariance() {
        let g = SceneGenerator::new(64);
        let net = SimNet::default_net();
        let img = g.canonical(ObjectClass(9));
        let brighter = img.scaled(1.2);
        let d = dist(&net.extract(&img), &net.extract(&brighter));
        assert!(d < 0.15, "illumination shifted embedding by {d}");
    }

    #[test]
    fn layer_outputs_chain() {
        let g = SceneGenerator::new(64);
        let net = SimNet::default_net();
        let img = g.canonical(ObjectClass(2));
        let layers = net.extract_layers(&img);
        assert_eq!(layers.len(), net.num_layers() + 1);
        // Resuming from layer k reproduces the final embedding (note that
        // extract_layers normalizes the last element, so resume from the
        // unnormalized chain: recompute through forward passes).
        for k in 0..net.num_layers() {
            let resumed = net.extract_from_layer(k, &layers[k]);
            let full = layers.last().unwrap();
            assert!(
                dist(&resumed, full) < 1e-5,
                "resume from layer {k} diverged"
            );
        }
    }

    #[test]
    fn flops_accounting() {
        let net = SimNet::default_net();
        let img = Image::new(64, 64, 0);
        assert_eq!(net.pool_flops(&img), 64 * 64);
        assert_eq!(net.layer_flops(0), 64 * 64 * 2);
        assert_eq!(net.layer_flops(1), 64 * 48 * 2);
        assert_eq!(net.layer_flops(2), 48 * 32 * 2);
        assert_eq!(
            net.total_flops(&img),
            64 * 64 + 64 * 64 * 2 + 64 * 48 * 2 + 48 * 32 * 2
        );
    }

    #[test]
    fn byte_size_is_compact() {
        let net = SimNet::default_net();
        let g = SceneGenerator::new(64);
        let img = g.canonical(ObjectClass(0));
        let e = net.extract(&img);
        // Descriptor must be much smaller than the image it summarizes.
        assert!(e.byte_size() * 10 < img.byte_size());
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn resume_with_wrong_dim_panics() {
        let net = SimNet::default_net();
        let bad = FeatureVec::new(vec![0.0; 7]);
        let _ = net.extract_from_layer(1, &bad);
    }

    #[test]
    fn normalized_zero_vector_is_identity() {
        let z = FeatureVec::new(vec![0.0; 4]);
        assert_eq!(z.normalized(), z);
    }
}
