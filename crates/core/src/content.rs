//! Shared content universe: models and panoramas, with their digests.
//!
//! All nodes derive content deterministically from ids (the substitution
//! for the paper's real model files and video frames), so a client can
//! know the hash of "the avatar model for player 7" without downloading
//! it, exactly as a real app knows asset hashes from its manifest.

use crate::cmf::encode;
use crate::task::{Held, TaskResult};
use bytes::Bytes;
use coic_cache::Digest;
use coic_render::{procgen, Mat4, Panorama, Scene, Vec3};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// One key's content, in two slots each filled at most once: the generated
/// entry, filled by the key's first touch of any kind, and its digest,
/// filled from the entry's bytes by the first caller that asks for the
/// digest — a client naming the content. A server that only sends the
/// entry never hashes it. The entry is [`Held`] as the result a cloud
/// answers with, so whatever sends it keeps the blob's checksum with the
/// entry (filled by the first send, never by a reader of bytes or digest).
#[derive(Default)]
struct Slot {
    entry: OnceLock<Arc<Held>>,
    digest: OnceLock<Digest>,
}

/// Content generated at most once per key, and hashed at most once per key
/// when first asked for its digest. The map's lock is held only to find or
/// insert a key's slot; generating and hashing run outside it, so a first
/// touch waits only for another first touch of the *same* key.
struct GenerateOnce<K> {
    entries: Mutex<HashMap<K, Arc<Slot>>>,
    /// The result an entry's generated bytes are held as.
    wrap: fn(Bytes) -> TaskResult,
}

impl<K: Hash + Eq> GenerateOnce<K> {
    fn new(wrap: fn(Bytes) -> TaskResult) -> Self {
        GenerateOnce {
            entries: Mutex::new(HashMap::new()),
            wrap,
        }
    }

    /// The key's slot and its entry, generating on first touch.
    fn filled(&self, key: K, generate: impl FnOnce() -> Bytes) -> (Arc<Slot>, Arc<Held>) {
        let slot = Arc::clone(self.entries.lock().entry(key).or_default());
        let held = Arc::clone(
            slot.entry
                .get_or_init(|| Arc::new(Held::new((self.wrap)(generate())))),
        );
        (slot, held)
    }

    /// The key's entry, generated on first touch and not hashed.
    fn held(&self, key: K, generate: impl FnOnce() -> Bytes) -> Arc<Held> {
        self.filled(key, generate).1
    }

    /// The key's entry and the digest of its bytes, each made on first use.
    fn get(&self, key: K, generate: impl FnOnce() -> Bytes) -> (Arc<Held>, Digest) {
        let (slot, held) = self.filled(key, generate);
        let digest = *slot.digest.get_or_init(|| Digest::of(&blob_of(&held)));
        (held, digest)
    }

    /// Keys whose content has been generated (not those still generating).
    fn generated(&self) -> usize {
        self.count(|slot| slot.entry.get().is_some())
    }

    /// Keys whose content has been hashed.
    #[cfg(test)]
    fn digested(&self) -> usize {
        self.count(|slot| slot.digest.get().is_some())
    }

    fn count(&self, filled: impl Fn(&Slot) -> bool) -> usize {
        self.entries
            .lock()
            .values()
            .filter(|slot| filled(slot))
            .count()
    }
}

/// The bytes of a library entry.
fn blob_of(held: &Held) -> Bytes {
    held.result().blob().cloned().unwrap_or_default()
}

/// A model's CMF bytes, as generated from its id and size.
fn model_bytes(model_id: u64, size_bytes: u64) -> Bytes {
    encode(&procgen::model_of_size(size_bytes, model_id))
}

/// Lazily generated library of CMF model bytes.
///
/// Generation is deterministic in `(model_id, size_bytes)`, so every node
/// sharing a library (or even two distinct libraries) agrees on content
/// and digest.
pub struct ModelLibrary {
    entries: GenerateOnce<(u64, u64)>,
}

impl Default for ModelLibrary {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelLibrary {
    /// Create an empty library.
    pub fn new() -> Self {
        ModelLibrary {
            entries: GenerateOnce::new(TaskResult::Model),
        }
    }

    /// CMF bytes and digest for a model, generating and hashing on first
    /// use.
    pub fn get(&self, model_id: u64, size_bytes: u64) -> (Bytes, Digest) {
        let (held, digest) = self.with_digest(model_id, size_bytes);
        (blob_of(&held), digest)
    }

    /// The library's own entry for a model — a [`TaskResult::Model`] over
    /// the bytes [`ModelLibrary::get`] returns — generating on first use.
    /// It does not hash the bytes: a cloud serves the entry to whoever
    /// named it, and the name (the digest) is the asker's.
    pub fn held(&self, model_id: u64, size_bytes: u64) -> Arc<Held> {
        self.entries
            .held((model_id, size_bytes), || model_bytes(model_id, size_bytes))
    }

    /// Just the digest (what the client's manifest would hold), hashing on
    /// first use.
    pub fn digest(&self, model_id: u64, size_bytes: u64) -> Digest {
        self.with_digest(model_id, size_bytes).1
    }

    fn with_digest(&self, model_id: u64, size_bytes: u64) -> (Arc<Held>, Digest) {
        self.entries
            .get((model_id, size_bytes), || model_bytes(model_id, size_bytes))
    }

    /// Number of generated models.
    pub fn len(&self) -> usize {
        self.entries.generated()
    }

    /// Number of models whose bytes have been hashed.
    #[cfg(test)]
    pub(crate) fn digested(&self) -> usize {
        self.entries.digested()
    }

    /// True when nothing was generated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How panorama frames are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanoSource {
    /// Fast procedural synthesis (spherical wave bands).
    Procedural,
    /// Rasterize a deterministic 3D scene into a cubemap and project it —
    /// the real cloud-VR rendering path. `face_size` is the per-face
    /// resolution.
    Scene {
        /// Cubemap face resolution in pixels.
        face_size: u32,
    },
}

/// Build the deterministic VR world for one frame: a terrain floor and a
/// ring of avatars orbiting the viewer, advanced a step per frame (so
/// consecutive frames are distinct but related, like video).
fn frame_scene(frame_id: u64) -> Scene {
    let mut scene = Scene::new();
    let terrain = scene.add_model(procgen::terrain(24, 7, 0.6));
    scene.add_instance(
        terrain,
        Mat4::translate(Vec3::new(0.0, -1.2, 0.0)).mul(&Mat4::scale(Vec3::new(8.0, 1.0, 8.0))),
    );
    let avatar = scene.add_model(procgen::avatar(1));
    let orbit = frame_id as f32 * 0.15;
    for i in 0..3 {
        let a = orbit + i as f32 * std::f32::consts::TAU / 3.0;
        scene.add_instance(
            avatar,
            Mat4::translate(Vec3::new(3.0 * a.cos(), -0.4, 3.0 * a.sin())).mul(&Mat4::rotate_y(-a)),
        );
    }
    scene
}

/// Lazily generated library of panorama frames.
pub struct PanoLibrary {
    height: u32,
    source: PanoSource,
    entries: GenerateOnce<u64>,
}

impl PanoLibrary {
    /// Create a library synthesizing frames of the given equirect height
    /// (fast procedural source).
    pub fn new(height: u32) -> Self {
        Self::with_source(height, PanoSource::Procedural)
    }

    /// Create a library with an explicit frame source.
    pub fn with_source(height: u32, source: PanoSource) -> Self {
        PanoLibrary {
            height,
            source,
            entries: GenerateOnce::new(TaskResult::Panorama),
        }
    }

    /// Frame height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Panorama bytes and digest for a frame, generating and hashing on
    /// first use.
    pub fn get(&self, frame_id: u64) -> (Bytes, Digest) {
        let (held, digest) = self.with_digest(frame_id);
        (blob_of(&held), digest)
    }

    /// The library's own entry for a frame — a [`TaskResult::Panorama`]
    /// over the bytes [`PanoLibrary::get`] returns — generating on first
    /// use. Like [`ModelLibrary::held`], it does not hash the bytes.
    pub fn held(&self, frame_id: u64) -> Arc<Held> {
        self.entries.held(frame_id, || self.frame_bytes(frame_id))
    }

    /// Just the digest, hashing on first use.
    pub fn digest(&self, frame_id: u64) -> Digest {
        self.with_digest(frame_id).1
    }

    /// Number of frames whose bytes have been hashed.
    #[cfg(test)]
    pub(crate) fn digested(&self) -> usize {
        self.entries.digested()
    }

    fn with_digest(&self, frame_id: u64) -> (Arc<Held>, Digest) {
        self.entries.get(frame_id, || self.frame_bytes(frame_id))
    }

    fn frame_bytes(&self, frame_id: u64) -> Bytes {
        let pano = match self.source {
            PanoSource::Procedural => Panorama::synthesize(frame_id, self.height),
            PanoSource::Scene { face_size } => coic_render::render_equirect(
                &frame_scene(frame_id),
                Vec3::new(0.0, 0.3, 0.0),
                self.height,
                face_size,
            ),
        };
        Bytes::from(pano.into_bytes())
    }
}

/// The content a configured experiment serves: one model library, and one
/// panorama library per frame height (a frame's bytes are a function of
/// `(frame_id, height)`, so a library is never asked for another height's
/// frames). A [`SimConfig`](crate::simrun::SimConfig) owns one; clones of
/// the config share it, so a sweep over one config generates each model
/// once, not once per run, and hashes it once, when a simulated client first
/// names it (the simulated cloud serves it unhashed); it is freed with the
/// last clone. Generation is deterministic in the ids, so a shared universe
/// and a fresh one serve identical bytes.
#[derive(Clone, Default)]
pub struct ContentUniverse {
    models: Arc<ModelLibrary>,
    panos: Arc<Mutex<HashMap<u32, Arc<PanoLibrary>>>>,
}

impl ContentUniverse {
    /// The model library.
    pub fn models(&self) -> Arc<ModelLibrary> {
        Arc::clone(&self.models)
    }

    /// The (procedural) panorama library for frames `height` pixels high.
    pub fn panos(&self, height: u32) -> Arc<PanoLibrary> {
        let mut panos = self.panos.lock();
        let library = panos
            .entry(height)
            .or_insert_with(|| Arc::new(PanoLibrary::new(height)));
        Arc::clone(library)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmf::load_cmf;

    const PANO_64_FRAME_0_SHA256: &str =
        "2635ebd16a9a3746a21a9842da4cb86bdc20ba2fd7cd4e0fdaa5d4153f19a38f";
    const MODEL_1_100KB_SHA256: &str =
        "af05a95313e09336af403379b80899fb2e45818a406a545cae8b1b2e5f3f9e47";
    /// `payload_large`'s content size.
    const MODEL_1_1MB_SHA256: &str =
        "c7223c753709bdcbc28d3e0b4a3a20d06b2b172f72dd7c2a74fe8f4d47ece1b2";

    #[test]
    fn two_libraries_agree_on_content() {
        let a = ModelLibrary::new();
        let b = ModelLibrary::new();
        let (bytes_a, dig_a) = a.get(7, 100_000);
        let (bytes_b, dig_b) = b.get(7, 100_000);
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(dig_a, dig_b);
    }

    #[test]
    fn library_bytes_are_loadable_models() {
        let lib = ModelLibrary::new();
        let (bytes, _) = lib.get(3, 200_000);
        let loaded = load_cmf(&bytes).expect("library must produce valid CMF");
        loaded.mesh.validate().unwrap();
        // Size control within tolerance.
        let ratio = bytes.len() as f64 / 200_000.0;
        assert!((0.7..1.3).contains(&ratio), "size ratio {ratio}");
    }

    #[test]
    fn distinct_ids_distinct_digests() {
        let lib = ModelLibrary::new();
        assert_ne!(lib.digest(1, 100_000), lib.digest(2, 100_000));
        assert_ne!(lib.digest(1, 100_000), lib.digest(1, 200_000));
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn generation_is_cached() {
        let lib = ModelLibrary::new();
        let (a, _) = lib.get(5, 50_000);
        let (b, _) = lib.get(5, 50_000);
        assert_eq!(lib.len(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn racing_first_touches_of_one_id_share_one_generation() {
        let lib = ModelLibrary::new();
        let start = std::sync::Barrier::new(8);
        let got: Vec<(Bytes, Digest)> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        lib.get(5, 50_000)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        // Clones of one `Bytes` share its buffer; a second generation would
        // have allocated another.
        assert!(got
            .iter()
            .all(|(bytes, _)| bytes.as_ptr() == got[0].0.as_ptr()));
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn a_library_entry_is_summed_by_its_first_sender_and_by_no_reader() {
        let lib = ModelLibrary::new();
        let (bytes, digest) = lib.get(5, 50_000);
        assert_eq!(lib.digest(5, 50_000), digest);
        let held = lib.held(5, 50_000);
        assert!(
            !held.is_summed(),
            "reading bytes or digest summed the entry"
        );
        let blob = held.blob().expect("a model has a blob");
        assert!(
            blob.is_buffer(&bytes),
            "the entry and `get` share one buffer"
        );
        // Whoever asks next finds the same entry, summed.
        assert!(lib.held(5, 50_000).is_summed());
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn a_first_touch_does_not_hold_the_library_lock_while_generating() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let once = GenerateOnce::<u64>::new(TaskResult::Model);
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        std::thread::scope(|s| {
            // Key 1's generation cannot finish until key 2's has: with the
            // lock held across generation this times out instead.
            let once = &once;
            let slow = s.spawn(move || {
                once.get(1, || {
                    started_tx.send(()).unwrap();
                    let released = release_rx.recv_timeout(Duration::from_secs(20)).is_ok();
                    Bytes::copy_from_slice(if released { b"one" } else { b"timed out" })
                })
            });
            started_rx.recv().unwrap();
            let (two, _) = once.get(2, || Bytes::copy_from_slice(b"two"));
            assert_eq!(&blob_of(&two)[..], b"two");
            // Key 1 is still generating: it has a slot but is not counted.
            assert_eq!(once.generated(), 1);
            release_tx.send(()).unwrap();
            assert_eq!(&blob_of(&slow.join().unwrap().0)[..], b"one");
        });
        assert_eq!(once.generated(), 2);
    }

    #[test]
    fn racing_digests_of_one_id_hash_it_once_and_agree() {
        let lib = ModelLibrary::new();
        let start = std::sync::Barrier::new(8);
        let got: Vec<Digest> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        lib.digest(5, 50_000)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(got.iter().all(|d| *d == got[0]));
        assert_eq!(got[0], Digest::of(&lib.get(5, 50_000).0));
        assert_eq!((lib.len(), lib.digested()), (1, 1));
    }

    #[test]
    fn distinct_first_touches_all_complete() {
        let models = ModelLibrary::new();
        let panos = PanoLibrary::new(64);
        let start = std::sync::Barrier::new(6);
        std::thread::scope(|s| {
            for id in 0..6u64 {
                let (models, panos, start) = (&models, &panos, &start);
                s.spawn(move || {
                    start.wait();
                    let (bytes, digest) = models.get(id, 20_000);
                    assert_eq!(digest, Digest::of(&bytes));
                    let (bytes, digest) = panos.get(id);
                    assert_eq!(digest, Digest::of(&bytes));
                });
            }
        });
        assert_eq!(models.len(), 6);
        assert_eq!(panos.digest(3), PanoLibrary::new(64).digest(3));
    }

    /// Content is addressed by hash across nodes and runs, and every golden
    /// under `bench/golden/` and every benchmark ledger hashes these bytes:
    /// drift in either generator fails here, not 100 s into a golden diff.
    #[test]
    fn content_digests_are_pinned() {
        assert_eq!(
            PanoLibrary::new(64).digest(0).to_hex(),
            PANO_64_FRAME_0_SHA256
        );
        assert_eq!(
            ModelLibrary::new().digest(1, 100_000).to_hex(),
            MODEL_1_100KB_SHA256
        );
        assert_eq!(
            ModelLibrary::new().digest(1, 1_000_000).to_hex(),
            MODEL_1_1MB_SHA256
        );
    }

    #[test]
    fn scene_rendered_panoramas_are_deterministic_and_animated() {
        let lib = PanoLibrary::with_source(64, PanoSource::Scene { face_size: 48 });
        let (a, da) = lib.get(0);
        let (b, _) = lib.get(0);
        assert_eq!(a, b);
        // Consecutive frames differ (the avatars orbit).
        let (c, dc) = lib.get(1);
        assert_ne!(a, c);
        assert_ne!(da, dc);
        // The frame actually contains rendered content.
        assert!(a.iter().any(|&p| p > 0), "scene panorama is black");
        assert_eq!(a.len(), 128 * 64);
    }

    #[test]
    fn pano_library_roundtrip() {
        let lib = PanoLibrary::new(64);
        let (bytes, dig) = lib.get(9);
        assert_eq!(bytes.len(), 128 * 64);
        assert_eq!(lib.digest(9), dig);
        assert_ne!(lib.digest(9), lib.digest(10));
        // Content matches direct synthesis.
        let direct = Panorama::synthesize(9, 64);
        assert_eq!(&bytes[..], direct.bytes());
    }
}
