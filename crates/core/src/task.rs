//! The three IC task families and their results.

use bytes::Bytes;
use coic_netsim::rt::Summed;
use coic_vision::Image;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A fully specified unit of IC work (what the cloud executes on a miss).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskRequest {
    /// Recognize the object in a camera frame.
    Recognition {
        /// The captured frame.
        image: Image,
    },
    /// Load 3D model `model_id` (procedurally defined) of about
    /// `size_bytes`.
    RenderLoad {
        /// Model identifier (doubles as the procgen seed).
        model_id: u64,
        /// Requested model size.
        size_bytes: u64,
    },
    /// Fetch panoramic frame `frame_id`.
    Panorama {
        /// Frame identifier (doubles as the synthesis seed).
        frame_id: u64,
    },
}

impl TaskRequest {
    /// Short label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TaskRequest::Recognition { .. } => "recognition",
            TaskRequest::RenderLoad { .. } => "render_load",
            TaskRequest::Panorama { .. } => "panorama",
        }
    }
}

/// The label a recognition task produces (the "annotation" the AR app
/// renders over the object).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecognitionResult {
    /// Predicted object class.
    pub label: u32,
    /// Distance to the winning class centroid (lower = more confident).
    pub distance: f32,
}

/// The result of executing a task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskResult {
    /// Recognition outcome.
    Recognition(RecognitionResult),
    /// Serialized (CMF) model bytes, parsed and re-encoded by the loader.
    Model(Bytes),
    /// Raw panorama bytes.
    Panorama(Bytes),
}

impl TaskResult {
    /// Bytes this result occupies on the wire (payload only).
    ///
    /// A recognition result is not just the 8-byte label: the AR app
    /// receives the annotation content to render (the paper's "high-quality
    /// 3D annotations"), modelled as a fixed-size blob.
    pub fn byte_size(&self) -> u64 {
        match self {
            TaskResult::Recognition(_) => ANNOTATION_BYTES,
            TaskResult::Model(b) => b.len() as u64,
            TaskResult::Panorama(b) => b.len() as u64,
        }
    }

    /// Short label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TaskResult::Recognition(_) => "recognition",
            TaskResult::Model(_) => "model",
            TaskResult::Panorama(_) => "panorama",
        }
    }

    /// The shared buffer this result carries, if it is one that does.
    pub fn blob(&self) -> Option<&Bytes> {
        match self {
            TaskResult::Recognition(_) => None,
            TaskResult::Model(b) | TaskResult::Panorama(b) => Some(b),
        }
    }
}

/// A result as a node holds it for reuse — an exact-cache entry at the
/// edge, a content-library entry behind the cloud — with the checksum of
/// its blob kept beside it once anything has computed it, so that sending
/// the result a second time reads none of its bytes
/// (`coic_netsim::rt::FrameConn::send_summed`).
///
/// The sum arrives one of two ways: derived from the verified frame the
/// result was received in ([`Held::from_frame`]: no pass over the blob), or
/// computed the first time the result is sent ([`Held::blob`]: one pass,
/// once). Nothing that only stores and compares results — the simulator —
/// ever asks for it, so nothing there computes it. Cloning copies the sum
/// if it is known; a clone made before that computes its own.
#[derive(Debug, Clone)]
pub struct Held {
    result: TaskResult,
    blob: OnceLock<Summed>,
}

impl Held {
    /// Hold `result`; its blob is summed if and when it is first sent.
    pub fn new(result: TaskResult) -> Held {
        Held {
            result,
            blob: OnceLock::new(),
        }
    }

    /// Hold a result decoded out of `frame` (`Msg::decode_frame` slices a
    /// blob out of the end of the frame it arrives in): the blob's sum is
    /// what is left of the frame's verified sum once the few bytes before
    /// the blob are taken off, so the blob itself is not read. A result
    /// whose blob is not the tail of `frame` is held as by [`Held::new`].
    pub fn from_frame(result: TaskResult, frame: &Summed) -> Held {
        let held = Held::new(result);
        if let Some(tail) = held.result.blob().and_then(|blob| frame.tail(blob)) {
            let _ = held.blob.set(tail);
        }
        held
    }

    /// The held result.
    pub fn result(&self) -> &TaskResult {
        &self.result
    }

    /// The result's blob with its sum (`None` for a result without one),
    /// summing it now if nothing has yet.
    pub fn blob(&self) -> Option<&Summed> {
        let bytes = self.result.blob()?;
        Some(self.blob.get_or_init(|| Summed::of(bytes.clone())))
    }

    /// Is the blob's sum already known (so that [`Held::blob`] is free)?
    pub fn is_summed(&self) -> bool {
        self.blob.get().is_some()
    }
}

/// Wire size of a recognition annotation (label + the annotation asset the
/// client renders).
pub const ANNOTATION_BYTES: u64 = 20_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_sizes() {
        let r = TaskResult::Recognition(RecognitionResult {
            label: 3,
            distance: 0.1,
        });
        assert_eq!(r.kind(), "recognition");
        assert_eq!(r.byte_size(), ANNOTATION_BYTES);
        let m = TaskResult::Model(Bytes::from(vec![0u8; 1234]));
        assert_eq!(m.byte_size(), 1234);
        let p = TaskResult::Panorama(Bytes::from(vec![0u8; 99]));
        assert_eq!(p.byte_size(), 99);
        assert_eq!(TaskRequest::Panorama { frame_id: 0 }.kind(), "panorama");
    }

    #[test]
    fn a_held_blob_is_summed_once_and_only_when_asked() {
        use coic_netsim::rt::Sum;
        let blob = Bytes::from(vec![7u8; 5000]);
        let held = Held::new(TaskResult::Model(blob.clone()));
        assert!(!held.is_summed());
        let first = held.blob().unwrap();
        assert!(first.is_buffer(&blob), "the held blob is the result's own");
        assert_eq!(first.sum(), Sum::of(&blob));
        assert!(held.is_summed() && held.clone().is_summed());
        let label = Held::new(TaskResult::Recognition(RecognitionResult {
            label: 1,
            distance: 0.0,
        }));
        assert!(label.blob().is_none() && !label.is_summed());
    }

    #[test]
    fn a_blob_sliced_from_a_verified_frame_is_held_already_summed() {
        use coic_netsim::rt::Sum;
        let frame = Summed::of(Bytes::from(
            (0..6000u32).map(|i| i as u8).collect::<Vec<_>>(),
        ));
        let blob = frame.bytes().slice(16..);
        let held = Held::from_frame(TaskResult::Panorama(blob.clone()), &frame);
        assert!(held.is_summed(), "derived, not deferred");
        assert_eq!(held.blob().unwrap().sum(), Sum::of(&blob));
        // A copy of the same bytes is not that frame's tail: deferred.
        let copy = Bytes::from(blob.to_vec());
        let held = Held::from_frame(TaskResult::Panorama(copy.clone()), &frame);
        assert!(!held.is_summed());
        assert_eq!(held.blob().unwrap().sum(), Sum::of(&copy));
    }
}
