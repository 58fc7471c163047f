//! The CoIC wire protocol.
//!
//! One message enum serves both transports: the discrete-event simulator
//! moves `Msg` values directly (charging the encoded size on the links),
//! and the real-TCP deployment ships the binary encoding produced here.
//!
//! Encoding: `magic(1) | version(1) | tag(1) | req_id(8 LE) | payload`.
//! All integers little-endian. Every decode validates magic, version, tag
//! and length — and that nothing follows the message — so a corrupt or
//! mismatched peer fails loudly.
//!
//! Buffer ownership: a model or panorama blob is always the *last* field
//! of the message that carries it. [`Msg::encode_parts`] therefore returns
//! the few bytes before the blob plus the blob itself, sharing its buffer
//! (the transport writes both with one vectored send), and
//! [`Msg::decode_frame`] returns the blob as a slice of the received frame.
//! [`Msg::encode`] and [`Msg::decode`] are the same codec with one copy
//! each, for callers that hold plain byte slices.

use crate::descriptor::FeatureDescriptor;
use crate::task::{RecognitionResult, TaskRequest, TaskResult};
use bytes::{Buf, BufMut, Bytes};
use coic_cache::Digest;
use coic_vision::{FeatureVec, Image};

/// Protocol magic byte.
pub const MAGIC: u8 = 0xC0;
/// Protocol version.
pub const VERSION: u8 = 1;

/// A protocol message.
///
/// # Examples
/// ```
/// use coic_core::Msg;
///
/// let msg = Msg::NeedPayload { req_id: 42 };
/// let bytes = msg.encode();
/// assert_eq!(bytes.len() as u64, msg.encoded_len());
/// assert_eq!(Msg::decode(&bytes).unwrap(), msg);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → edge: "is the result for this descriptor cached?"
    ///
    /// For render/panorama tasks the request itself is tiny, so it rides
    /// along as `hint` and lets the edge forward a miss to the cloud
    /// without another client round trip. Recognition queries carry no
    /// hint — the heavy camera frame is only uploaded when the edge asks
    /// for it with [`Msg::NeedPayload`].
    Query {
        /// Request id, unique per client.
        req_id: u64,
        /// The descriptor extracted on-device.
        descriptor: FeatureDescriptor,
        /// The compact task, when it fits in a descriptor-sized message.
        hint: Option<TaskRequest>,
    },
    /// Edge → client: cache hit, here is the result.
    Hit {
        /// Request id being answered.
        req_id: u64,
        /// The cached result.
        result: TaskResult,
    },
    /// Edge → client: recognition miss — upload the full input.
    NeedPayload {
        /// Request id being answered.
        req_id: u64,
    },
    /// Client → edge: full task after a `NeedPayload`.
    Upload {
        /// Request id.
        req_id: u64,
        /// The complete task.
        task: TaskRequest,
    },
    /// Edge → cloud: execute this task.
    Forward {
        /// Request id (edge-scoped).
        req_id: u64,
        /// The task to execute.
        task: TaskRequest,
    },
    /// Cloud → edge: execution finished.
    CloudReply {
        /// Request id being answered.
        req_id: u64,
        /// The computed result.
        result: TaskResult,
    },
    /// Edge → client: result for a miss path.
    Result {
        /// Request id being answered.
        req_id: u64,
        /// The result (freshly computed and now cached).
        result: TaskResult,
    },
    /// Client → cloud (via edge relay): the origin baseline's full offload.
    BaselineRequest {
        /// Request id.
        req_id: u64,
        /// The complete task.
        task: TaskRequest,
    },
    /// Cloud → client (via edge relay): baseline reply.
    BaselineReply {
        /// Request id being answered.
        req_id: u64,
        /// The computed result.
        result: TaskResult,
    },
    /// Edge → peer edge: "do you have this content?" (exact tasks only).
    PeerQuery {
        /// Request id (home-edge scoped).
        req_id: u64,
        /// Content digest being looked up.
        digest: Digest,
    },
    /// Peer edge → edge: answer to a [`Msg::PeerQuery`].
    PeerReply {
        /// Request id being answered.
        req_id: u64,
        /// The cached result, or `None` on a peer miss.
        result: Option<TaskResult>,
    },
    /// Edge → client: result served by a cooperating peer edge.
    PeerResult {
        /// Request id being answered.
        req_id: u64,
        /// The result fetched from the peer (now cached locally too).
        result: TaskResult,
    },
    /// Edge → client: the edge cannot serve this request right now (its
    /// cloud leg is circuit-broken or it is shutting down). The client
    /// should fall back to the origin path instead of retrying the edge.
    Unavailable {
        /// Request id being refused.
        req_id: u64,
    },
    /// Edge → client: the edge shed this request under overload
    /// (admission queue full, aged out, or brownout shedding). Unlike
    /// [`Msg::Unavailable`] the refusal is load-dependent and transient:
    /// the client should route this request to the cloud (or wait at
    /// least `retry_after_ms` before retrying the edge).
    Overloaded {
        /// Request id being shed.
        req_id: u64,
        /// Server-supplied hint: milliseconds to wait before retrying.
        retry_after_ms: u32,
    },
    /// Edge → peer edge: install this content (cluster replication — a
    /// non-owner placing a cloud-fetched result at its partition owner,
    /// or an owner pushing a hot entry's failover copy to its ring
    /// successor).
    Replicate {
        /// Request id (sender-scoped).
        req_id: u64,
        /// Cluster replication token: receivers install the entry only
        /// when this matches their own cluster's token, so a connection
        /// that merely reaches the edge port cannot poison the cache.
        token: u64,
        /// Content digest of the entry.
        digest: Digest,
        /// The result to install.
        result: TaskResult,
    },
    /// Peer edge → edge: a [`Msg::Replicate`] was installed. Exists so
    /// replication pushes are a normal request/reply exchange on the live
    /// framed transport (a handler that stays silent closes the
    /// connection).
    ReplicateAck {
        /// Request id being acknowledged.
        req_id: u64,
    },
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Buffer too short.
    Truncated,
    /// First byte was not [`MAGIC`].
    BadMagic(u8),
    /// Version mismatch.
    BadVersion(u8),
    /// Unknown message/desc/task/result tag.
    BadTag(u8),
    /// A length field exceeded sanity limits.
    TooLarge(u64),
    /// This many bytes followed a complete message. Rejected because a
    /// blob decoded by [`Msg::decode_frame`] keeps its whole frame alive:
    /// an accepted tail would be memory the cache pins but never accounts.
    Trailing(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message truncated"),
            ProtoError::BadMagic(b) => write!(f, "bad magic {b:#04x}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported version {v}"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t}"),
            ProtoError::TooLarge(n) => write!(f, "length {n} exceeds limit"),
            ProtoError::Trailing(n) => write!(f, "{n} bytes after the message"),
        }
    }
}

impl std::error::Error for ProtoError {}

const MAX_BLOB: u64 = 256 * 1024 * 1024;

fn need(buf: &impl Buf, n: usize) -> Result<(), ProtoError> {
    if buf.remaining() < n {
        Err(ProtoError::Truncated)
    } else {
        Ok(())
    }
}

fn put_descriptor(buf: &mut Vec<u8>, d: &FeatureDescriptor) {
    match d {
        FeatureDescriptor::Dnn(v) => {
            buf.put_u8(0);
            buf.put_u32_le(v.dim() as u32);
            for &x in v.as_slice() {
                buf.put_f32_le(x);
            }
        }
        FeatureDescriptor::ModelHash(h) => {
            buf.put_u8(1);
            buf.put_slice(h.as_bytes());
        }
        FeatureDescriptor::PanoramaHash(h) => {
            buf.put_u8(2);
            buf.put_slice(h.as_bytes());
        }
    }
}

fn get_descriptor(buf: &mut impl Buf) -> Result<FeatureDescriptor, ProtoError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as u64;
            if n > 1_000_000 {
                return Err(ProtoError::TooLarge(n));
            }
            need(buf, n as usize * 4)?;
            let mut v = Vec::with_capacity(n as usize);
            for _ in 0..n {
                v.push(buf.get_f32_le());
            }
            Ok(FeatureDescriptor::Dnn(FeatureVec::new(v)))
        }
        t @ (1 | 2) => {
            need(buf, 32)?;
            let mut h = [0u8; 32];
            buf.copy_to_slice(&mut h);
            let d = Digest(h);
            Ok(if t == 1 {
                FeatureDescriptor::ModelHash(d)
            } else {
                FeatureDescriptor::PanoramaHash(d)
            })
        }
        t => Err(ProtoError::BadTag(t)),
    }
}

fn put_task(buf: &mut Vec<u8>, t: &TaskRequest) {
    match t {
        TaskRequest::Recognition { image } => {
            buf.put_u8(0);
            buf.put_u32_le(image.width());
            buf.put_u32_le(image.height());
            buf.put_slice(image.pixels());
        }
        TaskRequest::RenderLoad {
            model_id,
            size_bytes,
        } => {
            buf.put_u8(1);
            buf.put_u64_le(*model_id);
            buf.put_u64_le(*size_bytes);
        }
        TaskRequest::Panorama { frame_id } => {
            buf.put_u8(2);
            buf.put_u64_le(*frame_id);
        }
    }
}

fn get_task(buf: &mut impl Buf) -> Result<TaskRequest, ProtoError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => {
            need(buf, 8)?;
            let w = buf.get_u32_le();
            let h = buf.get_u32_le();
            let n = w as u64 * h as u64;
            if n == 0 || n > MAX_BLOB {
                return Err(ProtoError::TooLarge(n));
            }
            need(buf, n as usize)?;
            let mut pixels = vec![0u8; n as usize];
            buf.copy_to_slice(&mut pixels);
            Ok(TaskRequest::Recognition {
                image: Image::from_raw(w, h, pixels),
            })
        }
        1 => {
            need(buf, 16)?;
            Ok(TaskRequest::RenderLoad {
                model_id: buf.get_u64_le(),
                size_bytes: buf.get_u64_le(),
            })
        }
        2 => {
            need(buf, 8)?;
            Ok(TaskRequest::Panorama {
                frame_id: buf.get_u64_le(),
            })
        }
        t => Err(ProtoError::BadTag(t)),
    }
}

/// Write a result up to, but not including, its blob, which is returned:
/// the caller appends it or sends it alongside.
fn put_result<'a>(buf: &mut Vec<u8>, r: &'a TaskResult) -> Option<&'a Bytes> {
    match r {
        TaskResult::Recognition(rr) => {
            buf.put_u8(0);
            buf.put_u32_le(rr.label);
            buf.put_f32_le(rr.distance);
            None
        }
        TaskResult::Model(b) => {
            buf.put_u8(1);
            buf.put_u32_le(b.len() as u32);
            Some(b)
        }
        TaskResult::Panorama(b) => {
            buf.put_u8(2);
            buf.put_u32_le(b.len() as u32);
            Some(b)
        }
    }
}

fn get_result(buf: &mut impl Buf) -> Result<TaskResult, ProtoError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => {
            need(buf, 8)?;
            Ok(TaskResult::Recognition(RecognitionResult {
                label: buf.get_u32_le(),
                distance: buf.get_f32_le(),
            }))
        }
        t @ (1 | 2) => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as u64;
            if n > MAX_BLOB {
                return Err(ProtoError::TooLarge(n));
            }
            need(buf, n as usize)?;
            // A copy out of a byte slice, a shared slice out of a `Bytes`.
            let b = buf.copy_to_bytes(n as usize);
            Ok(if t == 1 {
                TaskResult::Model(b)
            } else {
                TaskResult::Panorama(b)
            })
        }
        t => Err(ProtoError::BadTag(t)),
    }
}

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::Query { .. } => 0,
            Msg::Hit { .. } => 1,
            Msg::NeedPayload { .. } => 2,
            Msg::Upload { .. } => 3,
            Msg::Forward { .. } => 4,
            Msg::CloudReply { .. } => 5,
            Msg::Result { .. } => 6,
            Msg::BaselineRequest { .. } => 7,
            Msg::BaselineReply { .. } => 8,
            Msg::PeerQuery { .. } => 9,
            Msg::PeerReply { .. } => 10,
            Msg::PeerResult { .. } => 11,
            Msg::Unavailable { .. } => 12,
            Msg::Overloaded { .. } => 13,
            Msg::Replicate { .. } => 14,
            Msg::ReplicateAck { .. } => 15,
        }
    }

    /// The request id carried by any message.
    pub fn req_id(&self) -> u64 {
        match self {
            Msg::Query { req_id, .. }
            | Msg::Hit { req_id, .. }
            | Msg::NeedPayload { req_id }
            | Msg::Upload { req_id, .. }
            | Msg::Forward { req_id, .. }
            | Msg::CloudReply { req_id, .. }
            | Msg::Result { req_id, .. }
            | Msg::BaselineRequest { req_id, .. }
            | Msg::BaselineReply { req_id, .. }
            | Msg::PeerQuery { req_id, .. }
            | Msg::PeerReply { req_id, .. }
            | Msg::PeerResult { req_id, .. }
            | Msg::Unavailable { req_id }
            | Msg::Overloaded { req_id, .. }
            | Msg::Replicate { req_id, .. }
            | Msg::ReplicateAck { req_id } => *req_id,
        }
    }

    /// Serialize to wire bytes (one copy of any blob; the buffer is exactly
    /// the message, so freezing it pins no slack).
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        if let Some(blob) = self.encode_head(&mut out) {
            out.extend_from_slice(blob);
        }
        Bytes::from(out)
    }

    /// Serialize without copying a result blob: the wire bytes are
    /// `head ‖ body`, where `body` shares the blob's buffer (and is empty
    /// for messages that carry none). Hand both to
    /// `FrameConn::send_parts` or return them from a `FrameServer` handler.
    pub fn encode_parts(&self) -> (Vec<u8>, Bytes) {
        let mut head = Vec::with_capacity(64);
        let body = self.encode_head(&mut head).cloned().unwrap_or_default();
        (head, body)
    }

    /// Write everything that precedes the message's trailing blob, and
    /// return that blob (every result-carrying variant has it last).
    fn encode_head<'a>(&'a self, buf: &mut Vec<u8>) -> Option<&'a Bytes> {
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(self.tag());
        buf.put_u64_le(self.req_id());
        match self {
            Msg::Query {
                descriptor, hint, ..
            } => {
                put_descriptor(buf, descriptor);
                match hint {
                    Some(task) => {
                        buf.put_u8(1);
                        put_task(buf, task);
                    }
                    None => buf.put_u8(0),
                }
                None
            }
            Msg::Hit { result, .. }
            | Msg::CloudReply { result, .. }
            | Msg::Result { result, .. }
            | Msg::BaselineReply { result, .. }
            | Msg::PeerResult { result, .. } => put_result(buf, result),
            Msg::PeerQuery { digest, .. } => {
                buf.put_slice(digest.as_bytes());
                None
            }
            Msg::PeerReply { result, .. } => match result {
                Some(r) => {
                    buf.put_u8(1);
                    put_result(buf, r)
                }
                None => {
                    buf.put_u8(0);
                    None
                }
            },
            Msg::NeedPayload { .. } | Msg::Unavailable { .. } | Msg::ReplicateAck { .. } => None,
            Msg::Overloaded { retry_after_ms, .. } => {
                buf.put_u32_le(*retry_after_ms);
                None
            }
            Msg::Replicate {
                token,
                digest,
                result,
                ..
            } => {
                buf.put_u64_le(*token);
                buf.put_slice(digest.as_bytes());
                put_result(buf, result)
            }
            Msg::Upload { task, .. }
            | Msg::Forward { task, .. }
            | Msg::BaselineRequest { task, .. } => {
                put_task(buf, task);
                None
            }
        }
    }

    /// Length of [`Msg::encode`] without materializing the buffer — what
    /// the simulator charges on links.
    pub fn encoded_len(&self) -> u64 {
        let payload = match self {
            Msg::Query {
                descriptor, hint, ..
            } => {
                let d = 1 + match descriptor {
                    FeatureDescriptor::Dnn(v) => 4 + 4 * v.dim() as u64,
                    _ => 32,
                };
                let h = 1 + match hint {
                    None => 0,
                    Some(TaskRequest::Recognition { image }) => 9 + image.byte_size(),
                    Some(TaskRequest::RenderLoad { .. }) => 17,
                    Some(TaskRequest::Panorama { .. }) => 9,
                };
                d + h
            }
            Msg::Hit { result, .. }
            | Msg::CloudReply { result, .. }
            | Msg::Result { result, .. }
            | Msg::BaselineReply { result, .. }
            | Msg::PeerResult { result, .. } => {
                1 + match result {
                    TaskResult::Recognition(_) => 8,
                    TaskResult::Model(b) | TaskResult::Panorama(b) => 4 + b.len() as u64,
                }
            }
            Msg::PeerQuery { .. } => 32,
            Msg::PeerReply { result, .. } => {
                1 + match result {
                    None => 0,
                    Some(TaskResult::Recognition(_)) => 1 + 8,
                    Some(TaskResult::Model(b)) | Some(TaskResult::Panorama(b)) => {
                        1 + 4 + b.len() as u64
                    }
                }
            }
            Msg::NeedPayload { .. } | Msg::Unavailable { .. } | Msg::ReplicateAck { .. } => 0,
            Msg::Overloaded { .. } => 4,
            Msg::Replicate { result, .. } => {
                8 + 32
                    + 1
                    + match result {
                        TaskResult::Recognition(_) => 8,
                        TaskResult::Model(b) | TaskResult::Panorama(b) => 4 + b.len() as u64,
                    }
            }
            Msg::Upload { task, .. }
            | Msg::Forward { task, .. }
            | Msg::BaselineRequest { task, .. } => {
                1 + match task {
                    TaskRequest::Recognition { image } => 8 + image.byte_size(),
                    TaskRequest::RenderLoad { .. } => 16,
                    TaskRequest::Panorama { .. } => 8,
                }
            }
        };
        11 + payload
    }

    /// Parse wire bytes; a result blob is copied out of `data`.
    pub fn decode(data: &[u8]) -> Result<Msg, ProtoError> {
        Msg::decode_buf(data)
    }

    /// Parse a received frame; a result blob is a slice of `frame`, which
    /// it keeps alive (blob plus at most 64 bytes of message framing —
    /// trailing bytes are rejected, so never more).
    pub fn decode_frame(frame: Bytes) -> Result<Msg, ProtoError> {
        Msg::decode_buf(frame)
    }

    fn decode_buf(mut buf: impl Buf) -> Result<Msg, ProtoError> {
        need(&buf, 11)?;
        let magic = buf.get_u8();
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let version = buf.get_u8();
        if version != VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let tag = buf.get_u8();
        let req_id = buf.get_u64_le();
        let msg = match tag {
            0 => {
                let descriptor = get_descriptor(&mut buf)?;
                need(&buf, 1)?;
                let hint = match buf.get_u8() {
                    0 => None,
                    1 => Some(get_task(&mut buf)?),
                    t => return Err(ProtoError::BadTag(t)),
                };
                Msg::Query {
                    req_id,
                    descriptor,
                    hint,
                }
            }
            1 => Msg::Hit {
                req_id,
                result: get_result(&mut buf)?,
            },
            2 => Msg::NeedPayload { req_id },
            3 => Msg::Upload {
                req_id,
                task: get_task(&mut buf)?,
            },
            4 => Msg::Forward {
                req_id,
                task: get_task(&mut buf)?,
            },
            5 => Msg::CloudReply {
                req_id,
                result: get_result(&mut buf)?,
            },
            6 => Msg::Result {
                req_id,
                result: get_result(&mut buf)?,
            },
            7 => Msg::BaselineRequest {
                req_id,
                task: get_task(&mut buf)?,
            },
            8 => Msg::BaselineReply {
                req_id,
                result: get_result(&mut buf)?,
            },
            9 => {
                need(&buf, 32)?;
                let mut h = [0u8; 32];
                buf.copy_to_slice(&mut h);
                Msg::PeerQuery {
                    req_id,
                    digest: Digest(h),
                }
            }
            10 => {
                need(&buf, 1)?;
                let result = match buf.get_u8() {
                    0 => None,
                    1 => Some(get_result(&mut buf)?),
                    t => return Err(ProtoError::BadTag(t)),
                };
                Msg::PeerReply { req_id, result }
            }
            11 => Msg::PeerResult {
                req_id,
                result: get_result(&mut buf)?,
            },
            12 => Msg::Unavailable { req_id },
            13 => {
                need(&buf, 4)?;
                Msg::Overloaded {
                    req_id,
                    retry_after_ms: buf.get_u32_le(),
                }
            }
            14 => {
                need(&buf, 8 + 32)?;
                let token = buf.get_u64_le();
                let mut h = [0u8; 32];
                buf.copy_to_slice(&mut h);
                Msg::Replicate {
                    req_id,
                    token,
                    digest: Digest(h),
                    result: get_result(&mut buf)?,
                }
            }
            15 => Msg::ReplicateAck { req_id },
            t => return Err(ProtoError::BadTag(t)),
        };
        match buf.remaining() {
            0 => Ok(msg),
            n => Err(ProtoError::Trailing(n)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::BytesMut;

    /// One message of every variant (and every optional shape), with
    /// `req_id`s 1, 2, 3, … in order.
    pub(crate) fn samples() -> Vec<Msg> {
        vec![
            Msg::Query {
                req_id: 1,
                descriptor: FeatureDescriptor::Dnn(FeatureVec::new(vec![0.5, -0.25, 1.0])),
                hint: None,
            },
            Msg::Query {
                req_id: 2,
                descriptor: FeatureDescriptor::ModelHash(Digest::of(b"model-7")),
                hint: Some(TaskRequest::RenderLoad {
                    model_id: 7,
                    size_bytes: 123_456,
                }),
            },
            Msg::Query {
                req_id: 3,
                descriptor: FeatureDescriptor::PanoramaHash(Digest::of(b"frame-9")),
                hint: Some(TaskRequest::Panorama { frame_id: 9 }),
            },
            Msg::Hit {
                req_id: 4,
                result: TaskResult::Recognition(RecognitionResult {
                    label: 42,
                    distance: 0.125,
                }),
            },
            Msg::NeedPayload { req_id: 5 },
            Msg::Upload {
                req_id: 6,
                task: TaskRequest::Recognition {
                    image: Image::from_fn(8, 8, |x, y| (x * 8 + y) as u8),
                },
            },
            Msg::Forward {
                req_id: 7,
                task: TaskRequest::RenderLoad {
                    model_id: 99,
                    size_bytes: 1_000_000,
                },
            },
            Msg::CloudReply {
                req_id: 8,
                result: TaskResult::Model(Bytes::from(vec![1, 2, 3, 4])),
            },
            Msg::Result {
                req_id: 9,
                result: TaskResult::Panorama(Bytes::from(vec![9; 100])),
            },
            Msg::BaselineRequest {
                req_id: 10,
                task: TaskRequest::Panorama { frame_id: 77 },
            },
            Msg::BaselineReply {
                req_id: 11,
                result: TaskResult::Recognition(RecognitionResult {
                    label: 0,
                    distance: 0.0,
                }),
            },
            Msg::PeerQuery {
                req_id: 12,
                digest: Digest::of(b"peer-content"),
            },
            Msg::PeerReply {
                req_id: 13,
                result: Some(TaskResult::Model(Bytes::from(vec![5, 6, 7]))),
            },
            Msg::PeerReply {
                req_id: 14,
                result: None,
            },
            Msg::PeerResult {
                req_id: 15,
                result: TaskResult::Panorama(Bytes::from(vec![8; 20])),
            },
            Msg::Unavailable { req_id: 16 },
            Msg::Overloaded {
                req_id: 17,
                retry_after_ms: 250,
            },
            Msg::Replicate {
                req_id: 18,
                token: 0xC0FF_EE00_DEAD_BEEF,
                digest: Digest::of(b"replicated-content"),
                result: TaskResult::Model(Bytes::from(vec![11, 22, 33])),
            },
            Msg::ReplicateAck { req_id: 19 },
        ]
    }

    #[test]
    fn round_trip_every_variant() {
        for msg in samples() {
            let bytes = msg.encode();
            let back = Msg::decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for msg in samples() {
            assert_eq!(
                msg.encode().len() as u64,
                msg.encoded_len(),
                "mismatch for {msg:?}"
            );
        }
    }

    #[test]
    fn req_id_preserved() {
        for (i, msg) in samples().iter().enumerate() {
            assert_eq!(msg.req_id(), i as u64 + 1);
        }
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        for msg in samples() {
            let bytes = msg.encode();
            for keep in 0..bytes.len() {
                match Msg::decode(&bytes[..keep]) {
                    Err(_) => {}
                    Ok(m) => panic!("decoded {m:?} from {keep}/{} bytes", bytes.len()),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected_by_both_entry_points() {
        for msg in samples() {
            let mut bytes = msg.encode().to_vec();
            bytes.push(0);
            assert_eq!(Msg::decode(&bytes), Err(ProtoError::Trailing(1)), "{msg:?}");
            bytes.extend_from_slice(&[0xAB; 999]);
            assert_eq!(
                Msg::decode_frame(Bytes::from(bytes)),
                Err(ProtoError::Trailing(1000)),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn parts_and_frame_codec_agree_with_the_copying_one() {
        for msg in samples() {
            let (head, body) = msg.encode_parts();
            let wire = msg.encode();
            assert_eq!([&head[..], &body[..]].concat(), wire, "{msg:?}");
            let from_frame = Msg::decode_frame(wire.clone()).unwrap();
            assert_eq!(from_frame, Msg::decode(&wire).unwrap());
            assert_eq!(from_frame, msg);
            // A decoded blob is a view into the frame, not a copy of it;
            // an encoded body is the message's own blob.
            let blob_of = |m: &Msg| match m {
                Msg::Hit { result, .. }
                | Msg::CloudReply { result, .. }
                | Msg::Result { result, .. }
                | Msg::BaselineReply { result, .. }
                | Msg::PeerResult { result, .. }
                | Msg::Replicate { result, .. }
                | Msg::PeerReply {
                    result: Some(result),
                    ..
                } => match result {
                    TaskResult::Model(b) | TaskResult::Panorama(b) => Some(b.clone()),
                    TaskResult::Recognition(_) => None,
                },
                _ => None,
            };
            match (blob_of(&msg), blob_of(&from_frame)) {
                (Some(sent), Some(got)) => {
                    assert_eq!(body.as_ptr(), sent.as_ptr(), "encode_parts copied {msg:?}");
                    let frame = wire.as_ptr_range();
                    let blob = got.as_ptr_range();
                    assert!(
                        frame.start <= blob.start && blob.end == frame.end,
                        "decode_frame copied {msg:?}"
                    );
                    assert!(head.len() <= 64, "head of {msg:?} is {} B", head.len());
                }
                (None, None) => assert!(body.is_empty()),
                other => panic!("blob mismatch for {msg:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_version_tag() {
        let good = Msg::NeedPayload { req_id: 1 }.encode();
        let mut bad = good.to_vec();
        bad[0] = 0xFF;
        assert_eq!(Msg::decode(&bad), Err(ProtoError::BadMagic(0xFF)));
        let mut bad = good.to_vec();
        bad[1] = 9;
        assert_eq!(Msg::decode(&bad), Err(ProtoError::BadVersion(9)));
        let mut bad = good.to_vec();
        bad[2] = 99;
        assert_eq!(Msg::decode(&bad), Err(ProtoError::BadTag(99)));
    }

    #[test]
    fn absurd_lengths_rejected() {
        // Hand-craft a Query with a descriptor length field of 2^31.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(0); // Query
        buf.put_u64_le(1);
        buf.put_u8(0); // Dnn descriptor
        buf.put_u32_le(u32::MAX);
        match Msg::decode(&buf) {
            Err(ProtoError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn descriptor_query_is_small_upload_is_large() {
        // The protocol asymmetry CoIC relies on.
        let img = Image::from_fn(64, 64, |x, _| x as u8);
        let query = Msg::Query {
            req_id: 1,
            descriptor: FeatureDescriptor::Dnn(FeatureVec::new(vec![0.0; 32])),
            hint: None,
        };
        let upload = Msg::Upload {
            req_id: 1,
            task: TaskRequest::Recognition { image: img },
        };
        assert!(query.encoded_len() * 10 < upload.encoded_len());
    }
}
