//! Real transport: length-prefixed, checksummed frames over TCP.
//!
//! The same client/edge/cloud state machines that run on the simulator can
//! be deployed over actual sockets for live demos and loopback integration
//! tests. Connection handling is thread-per-connection with std
//! channels — appropriate for the handful of nodes in a CoIC deployment and
//! free of async-runtime dependencies (the guides recommend plain blocking
//! IO when you are not multiplexing thousands of connections). A server's
//! connection thread looks for its peer's next frame for a few tens of
//! microseconds before it sleeps (`POLL_BEFORE_SLEEP`, `PollPace`): a
//! closed-loop peer answers faster than a sleeping thread is woken.
//!
//! Wire format: `u32` big-endian payload length, `u32` big-endian CRC-32
//! (IEEE) of the payload, then the payload. Frames larger than
//! [`MAX_FRAME`] are rejected on both send and receive so a corrupt or
//! malicious peer cannot trigger unbounded allocation, and the receive
//! path allocates incrementally so a lying length prefix cannot reserve
//! more memory than the peer actually transmits.
//!
//! A [`FrameConn`] receives each frame into the allocation of the frame it
//! returned before, once nothing else holds that frame or a slice of it,
//! and reads into the part it reuses with as few calls as the socket
//! allows. Between two `recv`s a connection holds at most that one frame.
//!
//! A sender that holds a buffer for reuse — a cache entry, a library entry —
//! need not sum it again for every frame that carries it: CRC-32 is linear
//! over GF(2), so a frame's checksum folds from the sums of its parts
//! ([`Sum`], [`Summed`], [`FrameConn::send_summed`]), and the sum of a blob
//! sliced out of a received frame falls out of the sum the receiver has
//! just verified ([`FrameConn::recv_summed`], [`Summed::tail`]). The wire
//! bytes are the same either way and every receiver still checks all of
//! them.
//!
//! Fault tolerance: connections support read/write deadlines
//! ([`FrameConn::set_read_deadline`]), every error classifies into the
//! [`FaultError`] taxonomy, [`FrameServer`] shuts down gracefully (its
//! accept thread and live connections are torn down on drop), and
//! [`FaultProxy`] provides deterministic, seedable fault injection between
//! any client and server for chaos testing.

use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload (256 MiB) — larger than any CoIC
/// message (the biggest are multi-megabyte 3D models) but small enough to
/// bound allocation on a corrupt length prefix.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Receive-path chunk size: the largest allocation made before any payload
/// byte has actually arrived.
const RECV_CHUNK: usize = 64 * 1024;

/// Frame header: length (4) + CRC-32 (4).
const HDR_LEN: usize = 8;

/// How long a [`FrameServer`] connection thread looks for its peer's next
/// frame before it sleeps in `read` ([`FrameConn::poll_readable`]). Putting
/// a sleeping thread back on a processor costs more than serving a cached
/// hit (20 – 35 µs against 14 µs on the reference sandbox, whose idle
/// processors halt), and a peer in a closed loop sends again within a few
/// microseconds. A poll longer than the wake-up it saves is a loss, so the
/// budget is about one wake-up plus a prompt peer's turnaround. DESIGN.md
/// §17 has the measurements.
const POLL_BEFORE_SLEEP: Duration = Duration::from_micros(50);

/// Which frames a connection thread polls for. After `n` polls in a row
/// that found nothing it takes its next `2^n` frames the plain way, `n`
/// capped at [`PollPace::BACKOFF_MAX`]: a peer that thinks for longer than
/// the budget costs its thread one vain poll per 1 024 frames, a peer that
/// turns prompt is found out by the next poll, and a prompt peer that
/// stalls once sits out two frames.
#[derive(Default)]
struct PollPace {
    vain: u32,
    sit_out: u32,
}

impl PollPace {
    const BACKOFF_MAX: u32 = 10;

    /// Whether to poll before the next frame.
    fn due(&mut self) -> bool {
        let due = self.sit_out == 0;
        self.sit_out = self.sit_out.saturating_sub(1);
        due
    }

    /// What the poll that was due found.
    fn found(&mut self, something: bool) {
        if something {
            self.vain = 0;
        } else {
            self.vain = (self.vain + 1).min(Self::BACKOFF_MAX);
            self.sit_out = 1 << self.vain;
        }
    }
}

// --- CRC-32 (IEEE 802.3): a sparse fold for long inputs, slice-by-16 on
// interleaved chains for short ones and for the fold's tail --------------

/// Bytes consumed per step of the table kernel ([`crc_sliced`]): one table
/// per byte of the step. Chosen by measurement on the reference sandbox at
/// 8 KB / 100 kB / 1 MB: bytewise 0.40 GB/s, slice-by-8 1.6 GB/s,
/// slice-by-16 2.1 GB/s on one chain; with [`CRC_CHAINS`] chains
/// slice-by-16 still leads (DESIGN.md §3.1 has the grid).
const CRC_SLICES: usize = 16;

/// Independent sums the table kernel runs side by side, one over each of
/// as many equal runs of its input. A step cannot start before the
/// previous step's sum is known, so one chain leaves the processor waiting
/// on lookups; chains that do not depend on each other fill that wait.
/// Measured over 2 – 4 chains × 8 or 16 tables: four chains of slice-by-16
/// run at 4.7 – 5.2 GB/s from 8 KB to 1 MB, three at 4.4 – 4.9, two at
/// 3.7 – 3.8, one at 2.0 (DESIGN.md §3.1). Those are the rates of inputs
/// under [`FOLD_MIN`] and of the fold's tail; from `FOLD_MIN` on the fold
/// reads 1.5 × them at 16 KiB and 2.4 – 3.6 × from 64 KiB to 1 MB.
const CRC_CHAINS: usize = 4;

/// The shortest input split over [`CRC_CHAINS`] chains. Joining the chains
/// costs an operator and `CRC_CHAINS − 1` multiplies, 60 – 130 ns, which
/// the overlap only wins back from about 512 bytes on.
const CRC_INTERLEAVE_MIN: usize = 512;

/// The shortest input [`Crc32::update`] sums by the sparse fold
/// ([`crc_fold`]) rather than through the tables. The fold's fixed costs —
/// zeroing its window, and `FOLD_SPAN` words summed through the tables
/// whatever the length — are paid back from about 8 KiB on; from 16 KiB
/// the fold leads in every grid measured (DESIGN.md §3.1), and an 8 KB
/// panorama reply stays on the tables.
const FOLD_MIN: usize = 16 * 1024;
const _: () = assert!(FOLD_MIN >= 8 * FOLD_SPAN, "the fold needs FOLD_SPAN words");

/// With y = x⁶⁴ (one little-endian `u64` of input), the CRC polynomial P
/// divides y³⁰⁰ + y¹⁵⁵ + y¹¹⁷ + y⁸⁹ + 1: a word may be replaced by copies
/// of itself 300 − 155, 300 − 117, 300 − 89 and 300 words later without
/// changing the sum. These are those distances, in words, ascending;
/// every one is whole, so a copy is an XOR with no bit shift.
const FOLD_TAPS: [usize; 4] = [145, 183, 211, 300];

/// The longest tap: the words at the end of an input that the fold cannot
/// push on, and the history a folded word reads.
const FOLD_SPAN: usize = FOLD_TAPS[3];

/// Words in [`crc_fold`]'s stack window: the `FOLD_SPAN` history plus a
/// whole number of blocks of `FOLD_TAPS[0]` words.
const FOLD_WINDOW: usize = FOLD_SPAN + 12 * FOLD_TAPS[0];

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets one step
/// fold [`CRC_SLICES`] input bytes with independent lookups.
const fn crc32_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc32_tables();

/// Streaming CRC-32 (IEEE): sum a frame that lives in several slices
/// (header-side head and shared body, or receive chunks as they arrive)
/// without concatenating them. `Crc32::new().update(a).update(b).finish()`
/// equals `crc32(a ‖ b)`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// The state before any byte.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `data` into the sum: from [`FOLD_MIN`] bytes on by the sparse
    /// fold ([`crc_fold`]), below it through the tables ([`crc_sliced`]).
    pub fn update(mut self, data: &[u8]) -> Crc32 {
        self.0 = if data.len() >= FOLD_MIN {
            crc_fold(self.0, data)
        } else {
            crc_sliced(self.0, data)
        };
        self
    }

    /// The checksum of everything folded so far.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// The register `c` after `data`, through the tables.
///
/// From [`CRC_INTERLEAVE_MIN`] bytes on, the longest prefix that splits
/// into [`CRC_CHAINS`] equal runs of whole steps is summed one chain per
/// run, all in one loop. The first chain continues `c` and the others
/// start from zero, so, as the register of `a ‖ b` is the register of `a`
/// times x^(8·|b|) plus that of `b` from zero, the chains join as
/// `c = c·x^(8·run) ⊕ cₖ` — [`Sum::then`]'s operator. What is left, under
/// `CRC_CHAINS` steps and a partial one, goes through the same step on
/// one chain.
fn crc_sliced(c: u32, data: &[u8]) -> u32 {
    let (steps, tail) = data.as_chunks::<CRC_SLICES>();
    let (mut c, mut rest) = (c, steps);
    if data.len() >= CRC_INTERLEAVE_MIN {
        let run = steps.len() / CRC_CHAINS;
        let (runs, after) = steps.split_at(CRC_CHAINS * run);
        let lanes: [_; CRC_CHAINS] = std::array::from_fn(|k| &runs[k * run..][..run]);
        let mut sums = [0u32; CRC_CHAINS];
        sums[0] = c;
        for i in 0..run {
            for (c, lane) in sums.iter_mut().zip(&lanes) {
                *c = crc_step(*c, &lane[i]);
            }
        }
        let shift = x_pow_bytes((run * CRC_SLICES) as u64);
        c = sums[1..]
            .iter()
            .fold(sums[0], |c, &next| gf_mul(c, shift) ^ next);
        rest = after;
    }
    let mut c = rest.iter().fold(c, crc_step);
    for &b in tail {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The register `c` after `data` (at least [`FOLD_SPAN`] words), by the
/// sparse fold: no table lookup for all but the last `FOLD_SPAN` words.
///
/// Let wₖ be the input's little-endian words, `c` XORed into the low half
/// of w₀ (which makes the register 0, as in [`crc_step`]). With y = x⁶⁴,
/// word k stands for wₖ·y^(n−1−k), and the relation behind [`FOLD_TAPS`]
/// lets a word be replaced by copies of itself `t` words later, one per
/// tap, without changing the sum modulo P. Done in order, each word first
/// takes in what earlier words pushed into it, so the folded words are
/// vₖ = wₖ ⊕ vₖ₋₁₄₅ ⊕ vₖ₋₁₈₃ ⊕ vₖ₋₂₁₁ ⊕ vₖ₋₃₀₀ (0 before the input) for
/// every word but the last `FOLD_SPAN`, which take in only what the
/// folded prefix pushes into them and then go, with the `len % 8` bytes
/// after them, through [`crc_sliced`] from register 0.
///
/// The prefix is computed in blocks of `FOLD_TAPS[0]` words: no word of a
/// block reads another, so the four XORs run as one loop over slices,
/// which LLVM vectorises. The folded words live in a window on the stack
/// whose first `FOLD_SPAN` words are the history a block reads; when the
/// window is full its last `FOLD_SPAN` words move to the front.
fn crc_fold(c: u32, data: &[u8]) -> u32 {
    const BLOCK: usize = FOLD_TAPS[0];
    let (words, bytes) = data.as_chunks::<8>();
    let (head, tail) = words.split_at(words.len() - FOLD_SPAN);
    let mut win = [0u64; FOLD_WINDOW];
    // v₋₃₀₀ sits in `win[0]`, and only word 0 reads it (its last tap), so
    // the register put there is XORed into w₀ and into nothing else.
    win[0] = u64::from(c);
    let mut at = FOLD_SPAN;
    for block in head.chunks(BLOCK) {
        if at == FOLD_WINDOW {
            win.copy_within(FOLD_WINDOW - FOLD_SPAN.., 0);
            at = FOLD_SPAN;
        }
        let (seen, next) = win.split_at_mut(at);
        let tap = |t: usize| &seen[at - t..][..block.len()];
        let [t0, t1, t2, t3] = FOLD_TAPS;
        let taps = tap(t0).iter().zip(tap(t1)).zip(tap(t2)).zip(tap(t3));
        for ((v, w), (((a, b), c), d)) in next.iter_mut().zip(block).zip(taps) {
            *v = u64::from_le_bytes(*w) ^ a ^ b ^ c ^ d;
        }
        at += block.len();
    }
    // Tail word j takes vₖ₋ₜ only while k − t lies before the tail: j < t.
    let mut last = [[0u8; 8]; FOLD_SPAN];
    for (j, (out, w)) in last.iter_mut().zip(tail).enumerate() {
        let pushed = FOLD_TAPS
            .iter()
            .filter(|&&t| j < t)
            .fold(0, |v, &t| v ^ win[at - t + j]);
        *out = (u64::from_le_bytes(*w) ^ pushed).to_le_bytes();
    }
    crc_sliced(crc_sliced(0, last.as_flattened()), bytes)
}

/// Fold one step of input into the register `c`: the kernel, on one chain
/// or on several. The register only enters the first word; the other
/// three are looked up independently, so the CPU overlaps all sixteen.
#[inline(always)]
fn crc_step(c: u32, step: &[u8; CRC_SLICES]) -> u32 {
    let t = &CRC_TABLES;
    let mut acc = 0u32;
    for (w, word) in step.as_chunks::<4>().0.iter().enumerate() {
        let mut x = u32::from_le_bytes(*word);
        if w == 0 {
            x ^= c;
        }
        let top = CRC_SLICES - 1 - 4 * w;
        acc ^= t[top][(x & 0xFF) as usize]
            ^ t[top - 1][((x >> 8) & 0xFF) as usize]
            ^ t[top - 2][((x >> 16) & 0xFF) as usize]
            ^ t[top - 3][(x >> 24) as usize];
    }
    acc
}

/// CRC-32 (IEEE) of `data`, as carried in the frame header.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

// --- composable sums ----------------------------------------------------

/// The CRC-32 polynomial, bit-reflected like the tables: bit 31 is the
/// coefficient of x⁰, bit 0 that of x³¹.
const CRC_POLY: u32 = 0xEDB8_8320;

/// The polynomial 1 in that representation.
const GF_ONE: u32 = 0x8000_0000;

/// `a · b` in GF(2)[x] modulo the CRC polynomial: 32 shift-and-add steps,
/// branch-free (≈ 20 – 25 ns on the reference sandbox).
const fn gf_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut i = 0;
    while i < 32 {
        // Add b·xⁱ when a has xⁱ, then step b to b·xⁱ⁺¹.
        p ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
        b = (b >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(b & 1));
        i += 1;
    }
    p
}

/// `X2N[k]` is x^(2^k). The polynomial is primitive, so x has order
/// 2³² − 1 and x^(2^(k+32)) = x^(2^k): indices are taken modulo 32.
const fn x2n_table() -> [u32; 32] {
    let mut t = [0u32; 32];
    t[0] = GF_ONE >> 1;
    let mut k = 1;
    while k < 32 {
        t[k] = gf_mul(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
}

static X2N: [u32; 32] = x2n_table();

/// x^(8·len): what appending `len` bytes multiplies a running CRC by. One
/// table entry per set bit of `len`, folded with one multiply each.
fn x_pow_bytes(len: u64) -> u32 {
    let mut p = GF_ONE;
    let (mut n, mut k) = (len, 3);
    while n != 0 {
        if n & 1 != 0 {
            p = if p == GF_ONE {
                X2N[k & 31]
            } else {
                gf_mul(X2N[k & 31], p)
            };
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of a run of bytes in a form that composes: the checksum, the
/// run's length, and the operator x^(8·len) that appending the run applies
/// to whatever was summed before it. Since
/// `crc(a ‖ b) = crc(a)·x^(8·|b|) ⊕ crc(b)`, the sum of a concatenation is
/// one multiply away from the sums of its parts ([`Sum::then`]), and the sum
/// of a tail is one multiply away from the sums of the whole and of the
/// head ([`Sum::without_prefix`]) — no pass over bytes already summed.
///
/// A `Sum` says nothing about *which* bytes it is the sum of. Keep it
/// beside them: [`Summed`] is the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sum {
    crc: u32,
    shift: u32,
    len: u64,
}

impl Default for Sum {
    /// The sum of no bytes: the identity of [`Sum::then`] on both sides.
    fn default() -> Sum {
        Sum {
            crc: 0,
            shift: GF_ONE,
            len: 0,
        }
    }
}

impl Sum {
    /// Sum `bytes` (the one pass over them).
    pub fn of(bytes: &[u8]) -> Sum {
        Sum::known(crc32(bytes), bytes.len() as u64)
    }

    /// The sum of `len` bytes whose checksum something has already
    /// computed or verified.
    fn known(crc: u32, len: u64) -> Sum {
        Sum {
            crc,
            shift: x_pow_bytes(len),
            len,
        }
    }

    /// The sum of these bytes followed by `next`'s:
    /// `Sum::of(a).then(Sum::of(b)) == Sum::of(a ‖ b)`.
    pub fn then(self, next: Sum) -> Sum {
        Sum {
            crc: gf_mul(self.crc, next.shift) ^ next.crc,
            shift: gf_mul(self.shift, next.shift),
            len: self.len + next.len,
        }
    }

    /// The sum of what follows `head` in these bytes:
    /// `Sum::of(a ‖ b).without_prefix(Sum::of(a)) == Sum::of(b)`.
    ///
    /// # Panics
    /// Panics when `head` is longer than `self` (it is not a prefix).
    pub fn without_prefix(self, head: Sum) -> Sum {
        let len = self
            .len
            .checked_sub(head.len)
            .expect("a prefix is no longer than the whole");
        let shift = x_pow_bytes(len);
        Sum {
            crc: self.crc ^ gf_mul(head.crc, shift),
            shift,
            len,
        }
    }

    /// The CRC-32 (IEEE) of the summed bytes, as [`crc32`] computes it.
    pub fn crc(self) -> u32 {
        self.crc
    }
}

/// A shared buffer and the [`Sum`] of exactly its bytes. The only ways to
/// make one are to sum the buffer ([`Summed::of`]), to receive it as a
/// verified frame ([`FrameConn::recv_summed`]) or to slice it off the end
/// of one of those ([`Summed::tail`]) — so wherever the pair travels, the
/// sum is that of the bytes beside it. (A sum remembered apart from its
/// buffer, say in a table keyed by the buffer's address, outlives the
/// buffer and is then served for whatever is allocated there next.)
#[derive(Debug, Clone, Default)]
pub struct Summed {
    bytes: Bytes,
    sum: Sum,
}

impl Summed {
    /// Sum `bytes` (the one pass over them).
    pub fn of(bytes: Bytes) -> Summed {
        let sum = Sum::of(&bytes);
        Summed { bytes, sum }
    }

    /// The buffer.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// The sum of the buffer's bytes.
    pub fn sum(&self) -> Sum {
        self.sum
    }

    /// Is `other` this very buffer — the same bytes at the same address?
    /// Both are alive here, so equal views are equal contents without
    /// comparing them.
    pub fn is_buffer(&self, other: &Bytes) -> bool {
        self.bytes.as_ptr() == other.as_ptr() && self.bytes.len() == other.len()
    }

    /// `tail` paired with its sum, derived from this buffer's by a pass
    /// over the bytes *before* the tail only — what a blob sliced out of a
    /// received frame needs, where those are a few bytes of message
    /// framing. `None` unless `tail` is the end of this very buffer.
    pub fn tail(&self, tail: &Bytes) -> Option<Summed> {
        let at = self.bytes.len().checked_sub(tail.len())?;
        let (head, rest) = self.bytes.split_at(at);
        if rest.as_ptr() != tail.as_ptr() {
            return None;
        }
        Some(Summed {
            bytes: tail.clone(),
            sum: self.sum.without_prefix(Sum::of(head)),
        })
    }
}

// --- error taxonomy ----------------------------------------------------

/// Coarse failure classification used by retry/fallback logic upstack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultError {
    /// A read or write deadline expired.
    Timeout,
    /// The peer closed or the connection otherwise broke.
    Closed,
    /// Payload failed its checksum.
    Corrupt,
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversized,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Timeout => write!(f, "timeout"),
            FaultError::Closed => write!(f, "closed"),
            FaultError::Corrupt => write!(f, "corrupt"),
            FaultError::Oversized => write!(f, "oversized"),
        }
    }
}

/// Errors surfaced by the frame transport.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(io::Error),
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// A read or write deadline expired. The stream may be mid-frame and
    /// must be considered desynchronized; reconnect rather than retrying
    /// on the same connection.
    Timeout,
    /// Payload bytes did not match the header checksum.
    Corrupt {
        /// Checksum the sender declared.
        expected: u32,
        /// Checksum of the bytes actually received.
        actual: u32,
    },
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversized(u32),
}

impl FrameError {
    /// Classify into the coarse [`FaultError`] taxonomy.
    pub fn fault(&self) -> FaultError {
        match self {
            FrameError::Timeout => FaultError::Timeout,
            FrameError::Corrupt { .. } => FaultError::Corrupt,
            FrameError::Oversized(_) => FaultError::Oversized,
            FrameError::Closed => FaultError::Closed,
            FrameError::Io(e) => match e.kind() {
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => FaultError::Timeout,
                _ => FaultError::Closed,
            },
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Timeout => write!(f, "deadline expired"),
            FrameError::Corrupt { expected, actual } => {
                write!(f, "corrupt frame: crc {actual:#010x} != {expected:#010x}")
            }
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => FrameError::Timeout,
            _ => FrameError::Io(e),
        }
    }
}

// --- framed connection -------------------------------------------------

/// A framed, blocking TCP connection.
pub struct FrameConn {
    stream: TcpStream,
    /// A handle on the frame [`FrameConn::recv`] returned last: once the
    /// caller has let go of it, the next frame is received into its
    /// allocation ([`FrameConn::reclaim`]).
    last: Option<Bytes>,
}

impl FrameConn {
    /// Wrap an existing stream. Disables Nagle so small request/response
    /// frames are not delayed — CoIC descriptor queries are latency-bound.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(FrameConn { stream, last: None })
    }

    /// Connect to a listening peer.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Connect with a bound on how long connection establishment may take.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Self> {
        Self::new(TcpStream::connect_timeout(addr, timeout)?)
    }

    /// Bound how long [`FrameConn::recv`] may block. `None` blocks forever.
    /// An expired deadline surfaces as [`FrameError::Timeout`] and leaves
    /// the stream desynchronized (a frame may be partially read).
    pub fn set_read_deadline(&self, deadline: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(deadline)
    }

    /// Bound how long [`FrameConn::send`] may block on a full socket
    /// buffer. `None` blocks forever.
    pub fn set_write_deadline(&self, deadline: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(deadline)
    }

    /// Clone the underlying socket so one thread can read while another
    /// writes.
    pub fn try_clone(&self) -> io::Result<FrameConn> {
        Ok(FrameConn {
            stream: self.stream.try_clone()?,
            last: None,
        })
    }

    /// Shut down both directions, unblocking any thread inside
    /// [`FrameConn::recv`].
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Close the connection as a peer that is done with it: stop sending,
    /// then wait — at most `wait` — for the other side to close too,
    /// discarding whatever still arrives. A [`FrameServer`] closes its side
    /// only after its `closed` callback has run, so once this returns
    /// without the wait running out, whatever the server kept for the
    /// connection has been let go.
    pub fn hang_up(self, wait: Duration) {
        if self.stream.shutdown(Shutdown::Write).is_err()
            || self.stream.set_read_timeout(Some(wait)).is_err()
        {
            return;
        }
        let deadline = Instant::now() + wait;
        let mut sink = [0u8; 512];
        while let Ok(1..) = (&self.stream).read(&mut sink) {
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Send one frame.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        self.send_parts(payload, &[])
    }

    /// Send one frame whose payload is `head ‖ body`, without joining the
    /// two: a single vectored write puts header, head and body on the
    /// socket. This is how a cached blob reaches the wire uncopied — `head`
    /// is the few bytes of message framing, `body` the shared buffer.
    pub fn send_parts(&mut self, head: &[u8], body: &[u8]) -> Result<(), FrameError> {
        self.send_with(head, body, Sum::of(body))
    }

    /// [`FrameConn::send_parts`] for a body whose sum is already known:
    /// the frame's checksum is the head's sum folded with it, so the body
    /// is not read before the kernel copies it. Debug builds sum it anyway
    /// and assert the pair agrees.
    pub fn send_summed(&mut self, head: &[u8], body: &Summed) -> Result<(), FrameError> {
        debug_assert_eq!(
            body.sum,
            Sum::of(&body.bytes),
            "a buffer travelled with another buffer's sum"
        );
        self.send_with(head, &body.bytes, body.sum)
    }

    /// The one send: every frame's checksum is `Sum::of(head)` folded with
    /// the body's sum, whoever computed that.
    fn send_with(&mut self, head: &[u8], body: &[u8], body_sum: Sum) -> Result<(), FrameError> {
        let len = head.len() + body.len();
        if len > MAX_FRAME as usize {
            return Err(FrameError::Oversized(len.min(u32::MAX as usize) as u32));
        }
        let crc = Sum::of(head).then(body_sum).crc();
        write_frame(&mut self.stream, len as u32, crc, head, body)?;
        Ok(())
    }

    /// Receive one frame. Returns [`FrameError::Closed`] on clean EOF at a
    /// frame boundary, [`FrameError::Timeout`] if a read deadline expires,
    /// and [`FrameError::Corrupt`] on checksum mismatch. The returned
    /// buffer is the receive buffer itself (no copy) and holds no capacity
    /// beyond the frame. It is often the allocation of the frame returned
    /// before it: the connection keeps a handle on the last frame, and the
    /// next `recv` writes into that allocation only if that handle is the
    /// last one left — a frame, or a slice of one, that anyone still holds
    /// is never written over. Until then the connection pins at most that
    /// one frame, and an error lets it go.
    pub fn recv(&mut self) -> Result<Bytes, FrameError> {
        self.recv_verified().map(|(frame, _crc)| frame)
    }

    /// [`FrameConn::recv`], keeping the sum the check has just established
    /// beside the frame: a blob sliced out of it gets its own sum by
    /// [`Summed::tail`], and whoever sends that blob on need not read it
    /// again.
    pub fn recv_summed(&mut self) -> Result<Summed, FrameError> {
        let (bytes, crc) = self.recv_verified()?;
        let sum = Sum::known(crc, bytes.len() as u64);
        Ok(Summed { bytes, sum })
    }

    /// One frame and its checksum, which the bytes have been found to match.
    fn recv_verified(&mut self) -> Result<(Bytes, u32), FrameError> {
        let (len, expected) = match read_header(&mut self.stream) {
            Ok(h) => h,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
            Err(e) => return Err(e.into()),
        };
        if len > MAX_FRAME {
            return Err(FrameError::Oversized(len));
        }
        let mut buf = self.reclaim();
        let actual = read_body(&mut self.stream, len as usize, &mut buf)?;
        if actual != expected {
            return Err(FrameError::Corrupt { expected, actual });
        }
        let frame = Bytes::from(buf);
        self.last = Some(frame.clone());
        Ok((frame, actual))
    }

    /// The last frame's allocation, if nobody else holds any part of it
    /// any more; an empty buffer otherwise.
    fn reclaim(&mut self) -> Vec<u8> {
        match self.last.take().map(Bytes::try_into_mut) {
            Some(Ok(frame)) => frame.into(),
            _ => Vec::new(),
        }
    }

    /// Wait up to `budget` for the first byte of the next frame without
    /// sleeping: a non-blocking one-byte `peek`, giving the processor to
    /// whoever else can run between looks (the peer, when it shares this
    /// one). `false` when the budget ran out with nothing to read; an
    /// error or the end of the stream is something to read, and the
    /// caller's `recv` finds out which. The socket is blocking again on
    /// return, so sends never see `WouldBlock`.
    fn poll_readable(&self, budget: Duration) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let begun = Instant::now();
        let mut byte = [0u8; 1];
        let mut found = true;
        while matches!(self.stream.peek(&mut byte), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
        {
            if begun.elapsed() >= budget {
                found = false;
                break;
            }
            std::thread::yield_now();
        }
        let _ = self.stream.set_nonblocking(false);
        found
    }

    /// Local socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.stream.local_addr()
    }
}

// --- the one frame writer and the one body reader ----------------------

/// Put one frame on `w`: header (`len`, `crc`), then `head`, then `body`,
/// in a single vectored write (looping on short writes and `Interrupted`).
/// Every sender goes through here — [`FrameConn`]'s one send, and
/// [`FaultProxy`], which passes a checksum it did not compute so that it
/// can forward corrupted payloads.
fn write_frame<W: Write>(
    w: &mut W,
    len: u32,
    crc: u32,
    head: &[u8],
    body: &[u8],
) -> io::Result<()> {
    let mut hdr = [0u8; HDR_LEN];
    hdr[..4].copy_from_slice(&len.to_be_bytes());
    hdr[4..].copy_from_slice(&crc.to_be_bytes());
    let mut parts = [IoSlice::new(&hdr), IoSlice::new(head), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    // `advance_slices` also steps over empty slices, so `parts` is empty
    // exactly when every byte has been written.
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read a frame header: declared payload length and checksum.
fn read_header<R: Read>(r: &mut R) -> io::Result<(u32, u32)> {
    let mut hdr = [0u8; HDR_LEN];
    r.read_exact(&mut hdr)?;
    let [l0, l1, l2, l3, c0, c1, c2, c3] = hdr;
    Ok((
        u32::from_be_bytes([l0, l1, l2, l3]),
        u32::from_be_bytes([c0, c1, c2, c3]),
    ))
}

/// Read exactly `len` payload bytes into `buf` and return their CRC-32.
/// On return `buf` holds what arrived: the frame, or on an error the bytes
/// received before it.
///
/// `buf` may be a reclaimed frame ([`FrameConn::reclaim`]). Its first
/// `min(buf.len(), len)` bytes are initialized, so they are overwritten by
/// plain `read`s, each asking for the whole rest of them: a socket with a
/// whole frame queued hands it over in one call. Past them — all of it on
/// a fresh buffer — bytes land in the vector's spare capacity, never
/// zero-filled first, in reads of at most [`RECV_CHUNK`]. That capacity
/// starts at `min(len, RECV_CHUNK)` and doubles only once the buffer is
/// full, capped at `len`: a lying length prefix costs at most
/// `max(retained, RECV_CHUNK, 2 × received)` and never more than it
/// declared beyond what `buf` held. Each read of the reused part, and each
/// chunk past it, is summed as it lands. A completed frame's capacity is
/// exactly its length (a reclaimed buffer larger than the frame is
/// shrunk), so a cache entry sliced out of it pins no slack.
fn read_body<R: Read>(r: &mut R, len: usize, buf: &mut Vec<u8>) -> io::Result<u32> {
    let mut crc = Crc32::new();
    buf.truncate(len);
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(n @ 1..) => {
                crc = crc.update(&buf[got..got + n]);
                got += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            end => {
                buf.truncate(got);
                return Err(end.err().unwrap_or(io::ErrorKind::UnexpectedEof.into()));
            }
        }
    }
    while buf.len() < len {
        let got = buf.len();
        if got == buf.capacity() {
            let target = len.min((2 * got).max(RECV_CHUNK));
            buf.reserve_exact(target - got);
        }
        let want = (buf.capacity().min(len) - got).min(RECV_CHUNK);
        // `read_to_end` through `take` is the safe way to fill spare
        // capacity: it stops at `want`, which fits, so it never grows `buf`.
        let n = r.by_ref().take(want as u64).read_to_end(buf)?;
        if n < want {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        crc = crc.update(&buf[got..]);
    }
    buf.shrink_to_fit();
    Ok(crc.finish())
}

// --- sans-IO framing ---------------------------------------------------

/// Encode one frame (header + payload) into a fresh buffer without touching
/// a socket. This is the wire image [`FrameConn::send`] produces.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let len = payload.len();
    if len > MAX_FRAME as usize {
        return Err(FrameError::Oversized(len.min(u32::MAX as usize) as u32));
    }
    let mut out = Vec::with_capacity(HDR_LEN + len);
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental, sans-IO frame decoder.
///
/// Feed raw bytes in whatever fragments the transport produced
/// ([`FrameDecoder::push`]) and pull complete frames out
/// ([`FrameDecoder::next_frame`]). The decoder enforces the same
/// invariants as [`FrameConn::recv`] — [`MAX_FRAME`] before any payload
/// allocation, CRC-32 verification on completion — and buffers at most one
/// partial frame plus any not-yet-consumed trailing bytes, so a lying
/// length prefix cannot reserve more memory than the peer actually
/// transmits ([`RECV_CHUNK`]-granular reservation).
///
/// A decoder error is sticky: the stream is desynchronized and the
/// connection must be dropped, matching the blocking path's
/// reconnect-on-error contract.
#[derive(Default)]
pub struct FrameDecoder {
    /// Unconsumed raw bytes (header fragments and payload tails).
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed prefix is compacted lazily.
    pos: usize,
    /// Header of the frame currently being assembled, if parsed.
    pending: Option<(usize, u32)>,
    /// Set once a framing error is surfaced; further pushes are rejected.
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder at a frame boundary with no buffered bytes.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed raw transport bytes into the decoder.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps steady-state memory at one partial
        // frame rather than the whole connection history.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= RECV_CHUNK) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pull the next complete frame, if one is available.
    ///
    /// Returns `Ok(None)` when more bytes are needed, and a sticky
    /// [`FrameError`] ([`FrameError::Oversized`] or [`FrameError::Corrupt`])
    /// when the stream is unrecoverable.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Closed);
        }
        if self.pending.is_none() {
            if self.buffered() < HDR_LEN {
                return Ok(None);
            }
            let hdr = &self.buf[self.pos..self.pos + HDR_LEN];
            let len = u32::from_be_bytes(hdr[..4].try_into().unwrap());
            let expected = u32::from_be_bytes(hdr[4..].try_into().unwrap());
            if len > MAX_FRAME {
                self.poisoned = true;
                return Err(FrameError::Oversized(len));
            }
            self.pos += HDR_LEN;
            self.pending = Some((len as usize, expected));
        }
        let (len, expected) = self.pending.unwrap();
        if self.buffered() < len {
            return Ok(None);
        }
        let payload = Bytes::from(self.buf[self.pos..self.pos + len].to_vec());
        self.pos += len;
        self.pending = None;
        let actual = crc32(&payload);
        if actual != expected {
            self.poisoned = true;
            return Err(FrameError::Corrupt { expected, actual });
        }
        Ok(Some(payload))
    }
}

// --- shared listener plumbing ------------------------------------------

/// Registry of live per-connection sockets plus a stop flag, shared
/// between an accept loop and `shutdown()`.
struct ListenerShared {
    stop: AtomicBool,
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl ListenerShared {
    fn new() -> Arc<Self> {
        Arc::new(ListenerShared {
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        })
    }

    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().unwrap().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.conns.lock().unwrap().remove(&id);
    }

    /// Set the stop flag, sever every live connection, and poke the accept
    /// loop awake with a throwaway connection.
    fn initiate_shutdown(&self, addr: SocketAddr) {
        self.stop.store(true, Ordering::SeqCst);
        for (_, conn) in self.conns.lock().unwrap().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

/// A running frame server. Dropping the handle (or calling
/// [`FrameServer::shutdown`]) stops the accept loop, severs every live
/// connection, and joins the accept thread, so a dropped server really is
/// gone — chaos tests rely on that to kill an edge mid-workload.
pub struct FrameServer {
    addr: SocketAddr,
    shared: Arc<ListenerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Bind `addr` and serve each connection on its own thread with
    /// `handler`. The handler receives each inbound frame and returns the
    /// response frame to send back (simple RPC). Returning `None` closes
    /// the connection.
    pub fn spawn<A, F>(addr: A, handler: F) -> io::Result<FrameServer>
    where
        A: ToSocketAddrs,
        F: Fn(Bytes) -> Option<Vec<u8>> + Send + Sync + 'static,
    {
        Self::spawn_conn(
            addr,
            move |_conn, frame| handler(frame).map(|reply| (reply, Summed::default())),
            |_conn| {},
        )
    }

    /// [`FrameServer::spawn`] for handlers that keep state across the
    /// frames of one connection and answer with shared buffers: `handler`
    /// additionally receives the id of the connection the frame arrived on
    /// (ids are unique for the lifetime of the server and never reused),
    /// and its reply is a small owned head plus a shared body with its sum
    /// — the frame sent is `head ‖ body` ([`FrameConn::send_summed`]), so
    /// a cached `Bytes` goes out without being copied or summed again.
    /// `closed` runs on the connection's thread once no further frame of
    /// that connection will reach `handler` (the peer went away, a send
    /// failed, the handler returned `None`, or the server shut down): the
    /// place to drop whatever the handler kept under that id. The socket is
    /// closed after `closed` returns, so a peer that waits for the close
    /// ([`FrameConn::hang_up`]) knows the handler's state for it is gone.
    pub fn spawn_conn<A, F, C>(addr: A, handler: F, closed: C) -> io::Result<FrameServer>
    where
        A: ToSocketAddrs,
        F: Fn(u64, Bytes) -> Option<(Vec<u8>, Summed)> + Send + Sync + 'static,
        C: Fn(u64) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let handler = Arc::new((handler, closed));
        let shared = ListenerShared::new();
        let shared2 = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("coic-frame-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shared2.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { break };
                    let Some(id) = shared2.register(&stream) else {
                        continue;
                    };
                    let h = handler.clone();
                    let sh = shared2.clone();
                    let _ = std::thread::Builder::new()
                        .name("coic-frame-conn".into())
                        .spawn(move || {
                            let (handler, closed) = &*h;
                            let mut framed = FrameConn::new(stream).ok();
                            if let Some(fc) = framed.as_mut() {
                                let mut pace = PollPace::default();
                                loop {
                                    if pace.due() {
                                        pace.found(fc.poll_readable(POLL_BEFORE_SLEEP));
                                    }
                                    let Ok(frame) = fc.recv() else { break };
                                    match handler(id, frame) {
                                        Some((head, body)) => {
                                            if fc.send_summed(&head, &body).is_err() {
                                                break;
                                            }
                                        }
                                        None => break,
                                    }
                                }
                            }
                            closed(id);
                            sh.deregister(id);
                            // Only now does the peer see the close: one that
                            // hung up finds everything kept for it let go.
                            drop(framed);
                        });
                }
            })?;
        Ok(FrameServer {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, sever live connections, and join the accept thread.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.shared.initiate_shutdown(self.addr);
            let _ = t.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// --- deterministic fault injection -------------------------------------

/// What [`FaultProxy`] may do to traffic, expressed as per-frame
/// probabilities evaluated by a deterministic hash of
/// `(seed, connection, direction, frame index)` — two runs with the same
/// plan and workload shape make identical decisions regardless of thread
/// scheduling.
///
/// At most one fault fires per frame, checked in priority order:
/// kill > drop > corrupt > delay.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability a frame is silently dropped (the receiver must rely on
    /// its read deadline).
    pub drop_frame: f64,
    /// Probability a frame's payload is truncated: the declared length is
    /// kept but the second half of the payload is zero-filled, so framing
    /// stays synchronized and the receiver sees [`FrameError::Corrupt`].
    pub truncate_frame: f64,
    /// Probability a frame is delayed by [`FaultPlan::delay_ms`] before
    /// forwarding.
    pub delay_frame: f64,
    /// Delay applied to delayed frames.
    pub delay_ms: u64,
    /// Probability the whole connection is severed at this frame.
    pub kill_conn: f64,
    /// Blackhole: at client→server frame index `.0` of each connection,
    /// stall forwarding in that direction for `.1` milliseconds (models a
    /// routing brownout; TCP delivers everything afterwards).
    pub blackhole: Option<(u64, u64)>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_frame: 0.0,
            truncate_frame: 0.0,
            delay_frame: 0.0,
            delay_ms: 0,
            kill_conn: 0.0,
            blackhole: None,
        }
    }
}

/// Event counters for a [`FaultProxy`]. Snapshot with
/// [`FaultStats::snapshot`]; equal snapshots across runs demonstrate
/// deterministic injection.
#[derive(Default)]
pub struct FaultStats {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    truncated: AtomicU64,
    delayed: AtomicU64,
    conns_killed: AtomicU64,
    blackholes: AtomicU64,
    conns_opened: AtomicU64,
}

/// Point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Frames forwarded unmodified (delayed frames count here too).
    pub forwarded: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames forwarded with a corrupted payload.
    pub truncated: u64,
    /// Frames forwarded late.
    pub delayed: u64,
    /// Connections severed mid-stream.
    pub conns_killed: u64,
    /// Blackhole stalls applied.
    pub blackholes: u64,
    /// Connections accepted by the proxy.
    pub conns_opened: u64,
}

impl FaultStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            forwarded: self.forwarded.load(Ordering::SeqCst),
            dropped: self.dropped.load(Ordering::SeqCst),
            truncated: self.truncated.load(Ordering::SeqCst),
            delayed: self.delayed.load(Ordering::SeqCst),
            conns_killed: self.conns_killed.load(Ordering::SeqCst),
            blackholes: self.blackholes.load(Ordering::SeqCst),
            conns_opened: self.conns_opened.load(Ordering::SeqCst),
        }
    }
}

/// Fault decision for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    Forward,
    Drop,
    Truncate,
    Delay,
    Kill,
}

/// SplitMix64-style avalanche over the decision coordinates; yields a
/// uniform f64 in [0, 1).
fn fault_roll(seed: u64, conn: u64, dir: u64, frame: u64) -> f64 {
    let mut z = seed
        .wrapping_add(conn.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(dir.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(frame.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    fn decide(&self, conn: u64, dir: u64, frame: u64) -> FaultAction {
        let roll = fault_roll(self.seed, conn, dir, frame);
        // One roll, fixed priority bands: [0,kill) kill, [kill,kill+drop)
        // drop, and so on. A single roll keeps decisions independent of
        // evaluation order.
        let mut edge = self.kill_conn;
        if roll < edge {
            return FaultAction::Kill;
        }
        edge += self.drop_frame;
        if roll < edge {
            return FaultAction::Drop;
        }
        edge += self.truncate_frame;
        if roll < edge {
            return FaultAction::Truncate;
        }
        edge += self.delay_frame;
        if roll < edge {
            return FaultAction::Delay;
        }
        FaultAction::Forward
    }
}

/// A deterministic fault-injecting TCP proxy operating at frame
/// granularity. Point a client at [`FaultProxy::local_addr`] and the proxy
/// relays to `upstream`, applying the [`FaultPlan`] to each frame in each
/// direction independently.
pub struct FaultProxy {
    addr: SocketAddr,
    stats: Arc<FaultStats>,
    shared: Arc<ListenerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral local port and relay to `upstream` under
    /// `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        let stats = Arc::new(FaultStats::default());
        let shared = ListenerShared::new();
        let (shared2, stats2) = (shared.clone(), stats.clone());
        let accept_thread = std::thread::Builder::new()
            .name("coic-fault-accept".into())
            .spawn(move || {
                let mut conn_index = 0u64;
                for conn in listener.incoming() {
                    if shared2.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = conn else { break };
                    let Ok(server) = TcpStream::connect(upstream) else {
                        // Upstream is down: drop the client so it sees
                        // Closed rather than a hang.
                        continue;
                    };
                    stats2.conns_opened.fetch_add(1, Ordering::SeqCst);
                    let idx = conn_index;
                    conn_index += 1;
                    for (dir, from, to) in [
                        (0u64, client.try_clone(), server.try_clone()),
                        (1u64, server.try_clone(), client.try_clone()),
                    ] {
                        let (Ok(from), Ok(to)) = (from, to) else {
                            continue;
                        };
                        let reg = shared2.register(&from);
                        let sh = shared2.clone();
                        let (plan, stats) = (plan.clone(), stats2.clone());
                        let _ = std::thread::Builder::new()
                            .name("coic-fault-pump".into())
                            .spawn(move || {
                                pump_frames(from, to, plan, idx, dir, stats);
                                if let Some(id) = reg {
                                    sh.deregister(id);
                                }
                            });
                    }
                }
            })?;
        Ok(FaultProxy {
            addr: local,
            stats,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live event counters.
    pub fn stats(&self) -> FaultStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop the proxy and sever all relayed connections. Idempotent; also
    /// invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.shared.initiate_shutdown(self.addr);
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read a raw frame (header + payload) without checksum validation — the
/// proxy relays opaque bytes so it can corrupt them.
fn read_raw_frame(stream: &mut TcpStream) -> io::Result<(u32, u32, Vec<u8>)> {
    let (len, crc) = read_header(stream)?;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized"));
    }
    let mut buf = Vec::new();
    read_body(stream, len as usize, &mut buf)?;
    Ok((len, crc, buf))
}

/// Relay frames `from` → `to`, applying `plan` per frame.
fn pump_frames(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: FaultPlan,
    conn: u64,
    dir: u64,
    stats: Arc<FaultStats>,
) {
    let mut frame_idx = 0u64;
    while let Ok((len, crc, mut payload)) = read_raw_frame(&mut from) {
        if dir == 0 {
            if let Some((at, ms)) = plan.blackhole {
                if frame_idx == at {
                    stats.blackholes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
        }
        match plan.decide(conn, dir, frame_idx) {
            FaultAction::Kill => {
                stats.conns_killed.fetch_add(1, Ordering::SeqCst);
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                break;
            }
            FaultAction::Drop => {
                stats.dropped.fetch_add(1, Ordering::SeqCst);
            }
            FaultAction::Truncate => {
                stats.truncated.fetch_add(1, Ordering::SeqCst);
                let half = payload.len() / 2;
                for b in &mut payload[half..] {
                    *b = 0;
                }
                // Keep the original CRC: unless the payload was empty the
                // receiver now sees a checksum mismatch.
                if write_frame(&mut to, len, crc, &payload, &[]).is_err() {
                    break;
                }
            }
            FaultAction::Delay => {
                stats.delayed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(plan.delay_ms));
                // Counted before the write, like every other action: a
                // receiver that has the frame must also see it counted.
                stats.forwarded.fetch_add(1, Ordering::SeqCst);
                if write_frame(&mut to, len, crc, &payload, &[]).is_err() {
                    break;
                }
            }
            FaultAction::Forward => {
                stats.forwarded.fetch_add(1, Ordering::SeqCst);
                if write_frame(&mut to, len, crc, &payload, &[]).is_err() {
                    break;
                }
            }
        }
        frame_idx += 1;
    }
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_reassembles_frames_across_arbitrary_fragmentation() {
        let frames: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![7u8; 200_000]];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f).unwrap());
        }
        // 1-byte trickle.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        assert_eq!(got, frames);
        // One jumbo push.
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f.to_vec());
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_and_corrupt_and_stays_poisoned() {
        let mut dec = FrameDecoder::new();
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        hdr.extend_from_slice(&0u32.to_be_bytes());
        dec.push(&hdr);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized(_))));
        assert!(dec.next_frame().is_err());

        let mut dec = FrameDecoder::new();
        let mut frame = encode_frame(b"payload").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        dec.push(&frame);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn encode_frame_matches_frame_conn_wire_image() {
        let server = FrameServer::spawn("127.0.0.1:0", |frame| Some(frame.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        conn.send(b"wire image probe").unwrap();
        let echoed = conn.recv().unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&encode_frame(&echoed).unwrap());
        assert_eq!(dec.next_frame().unwrap().unwrap(), echoed);
    }

    #[test]
    fn echo_round_trip() {
        let server = FrameServer::spawn("127.0.0.1:0", |frame| Some(frame.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        conn.send(b"hello coic").unwrap();
        let back = conn.recv().unwrap();
        assert_eq!(&back[..], b"hello coic");
    }

    #[test]
    fn multiple_frames_in_order() {
        let server = FrameServer::spawn("127.0.0.1:0", |frame| {
            let mut v = frame.to_vec();
            v.push(b'!');
            Some(v)
        })
        .unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        for i in 0..50u8 {
            conn.send(&[i]).unwrap();
            let back = conn.recv().unwrap();
            assert_eq!(&back[..], &[i, b'!']);
        }
    }

    #[test]
    fn spawn_conn_ids_are_stable_per_connection_and_distinct_across() {
        // Head: the connection id. Body: the request frame, shared.
        let server = FrameServer::spawn_conn(
            "127.0.0.1:0",
            |conn, frame| Some((conn.to_be_bytes().to_vec(), Summed::of(frame))),
            |_conn| {},
        )
        .unwrap();
        let mut a = FrameConn::connect(server.local_addr()).unwrap();
        let mut b = FrameConn::connect(server.local_addr()).unwrap();
        let id_of = |c: &mut FrameConn| {
            c.send(b"who am i").unwrap();
            c.recv().unwrap()
        };
        let (a1, b1, a2) = (id_of(&mut a), id_of(&mut b), id_of(&mut a));
        assert_eq!(a1, a2);
        assert_ne!(a1, b1);
        assert_eq!(&a1[8..], b"who am i", "reply is head ‖ body");
    }

    #[test]
    fn spawn_conn_reports_each_connection_closed_once_after_its_last_frame() {
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let frames = Arc::new(AtomicU64::new(0));
        let seen = frames.clone();
        let server = FrameServer::spawn_conn(
            "127.0.0.1:0",
            move |_conn, frame| {
                seen.fetch_add(1, Ordering::SeqCst);
                // "bye" makes the handler hang up; anything else echoes.
                (&frame[..] != b"bye").then(|| (Vec::new(), Summed::of(frame)))
            },
            move |conn| tx.lock().unwrap().send(conn).unwrap(),
        )
        .unwrap();
        let wait = || rx.recv_timeout(Duration::from_secs(5)).expect("no close");
        // The peer goes away.
        let mut a = FrameConn::connect(server.local_addr()).unwrap();
        a.send(b"one").unwrap();
        a.recv().unwrap();
        assert!(rx.try_recv().is_err(), "closed while still open");
        drop(a);
        let first = wait();
        assert_eq!(frames.load(Ordering::SeqCst), 1);
        // The handler hangs up.
        let mut b = FrameConn::connect(server.local_addr()).unwrap();
        b.send(b"bye").unwrap();
        let second = wait();
        assert_ne!(first, second);
        // The server shuts down under an open connection.
        let mut c = FrameConn::connect(server.local_addr()).unwrap();
        c.send(b"two").unwrap();
        c.recv().unwrap();
        drop(server);
        let third = wait();
        assert!(third != first && third != second);
        assert!(rx.try_recv().is_err(), "a connection closed twice");
    }

    #[test]
    fn hang_up_returns_once_the_server_has_let_go_or_the_wait_runs_out() {
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let server = FrameServer::spawn_conn(
            "127.0.0.1:0",
            |_conn, frame| Some((Vec::new(), Summed::of(frame))),
            move |conn| tx.lock().unwrap().send(conn).unwrap(),
        )
        .unwrap();
        // Frames still on their way to the peer do not stop the close.
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        conn.send(b"one").unwrap();
        conn.recv().unwrap();
        conn.send(b"unread").unwrap();
        conn.hang_up(Duration::from_secs(5));
        assert!(
            rx.try_recv().is_ok(),
            "hang_up returned before `closed` ran"
        );
        // A peer that never closes is given `wait` and no more.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = FrameConn::connect(listener.local_addr().unwrap()).unwrap();
        let _held = listener.accept().unwrap();
        let begun = Instant::now();
        conn.hang_up(Duration::from_millis(30));
        let waited = begun.elapsed();
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
        assert!(waited < Duration::from_secs(2), "{waited:?}");
    }

    #[test]
    fn polling_for_the_next_frame_ends_on_data_hangup_or_budget_and_leaves_the_socket_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = FrameConn::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = FrameConn::new(listener.accept().unwrap().0).unwrap();
        let long = Duration::from_secs(5);
        // Nothing arrives: the poll lasts its budget. The frame that comes
        // later is then waited for — a socket left non-blocking would fail
        // this `recv` at once.
        let begun = Instant::now();
        assert!(!conn.poll_readable(Duration::from_millis(20)));
        assert!(begun.elapsed() >= Duration::from_millis(20));
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            peer.send(b"late").unwrap();
            peer
        });
        assert_eq!(&conn.recv().unwrap()[..], b"late");
        let mut peer = sender.join().unwrap();
        // A frame that arrives during the poll ends it.
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            peer.send(b"prompt").unwrap();
            peer
        });
        assert!(conn.poll_readable(long));
        assert_eq!(&conn.recv().unwrap()[..], b"prompt");
        // So does the peer hanging up, and `recv` says which it was.
        drop(sender.join().unwrap());
        assert!(conn.poll_readable(long));
        assert!(matches!(conn.recv(), Err(FrameError::Closed)));
    }

    #[test]
    fn a_connection_thread_that_polls_still_blocks_on_large_replies_and_slow_peers() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        let mut echo = |payload: &[u8]| {
            conn.send(payload).unwrap();
            assert_eq!(&conn.recv().unwrap()[..], payload);
        };
        // A closed loop: the thread's polls find the next frame.
        for i in 0..200u8 {
            echo(&[i]);
        }
        // Its reply to a frame far larger than a socket buffer has to block
        // on the peer reading it, poll or no poll.
        echo(&vec![0x5au8; 3 * 1024 * 1024]);
        echo(b"after");
        // Pauses outlast the poll: the thread sleeps, is woken, and backs off.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(2));
            echo(b"woken");
        }
        echo(b"and prompt again");
    }

    #[test]
    fn vain_polls_double_the_frames_sat_out_and_a_find_resets_them() {
        // Frames taken the plain way until the next poll is due.
        fn sat_out(pace: &mut PollPace) -> u32 {
            let mut frames = 0;
            while !pace.due() {
                frames += 1;
            }
            frames
        }
        let mut pace = PollPace::default();
        assert!(pace.due(), "a new connection polls for its first frame");
        for n in 1..=12u32 {
            pace.found(false);
            assert_eq!(sat_out(&mut pace), 1 << n.min(PollPace::BACKOFF_MAX));
        }
        pace.found(true);
        assert!(pace.due(), "a prompt peer is polled for every time");
        pace.found(false);
        assert_eq!(sat_out(&mut pace), 2, "one stall after a find starts over");
    }

    #[test]
    fn empty_frame_is_legal() {
        let server = FrameServer::spawn("127.0.0.1:0", |frame| {
            assert!(frame.is_empty());
            Some(vec![1, 2, 3])
        })
        .unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        conn.send(b"").unwrap();
        assert_eq!(&conn.recv().unwrap()[..], &[1, 2, 3]);
    }

    #[test]
    fn server_closing_yields_closed() {
        let server = FrameServer::spawn("127.0.0.1:0", |_frame| None).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        conn.send(b"bye").unwrap();
        match conn.recv() {
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
            other => panic!("expected close, got {other:?}"),
        }
    }

    #[test]
    fn oversized_send_rejected_locally() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        // Don't allocate 256 MiB; fake it with a small-but-over-limit check
        // via the length validation path by constructing a vec of exactly
        // MAX_FRAME + 1 would be expensive — instead validate the error type
        // with a crafted header through a raw socket.
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        // Receiving side: our own client should reject a bogus header too.
        conn.send(b"ok").unwrap();
        let _ = conn.recv().unwrap();
    }

    #[test]
    fn oversized_header_cannot_cause_huge_allocation() {
        // A peer that declares the largest legal frame but sends 10 bytes
        // and stalls costs RECV_CHUNK of capacity, and the read deadline
        // still fires.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stalled = Vec::new();
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut hdr = [0u8; HDR_LEN];
                hdr[..4].copy_from_slice(&MAX_FRAME.to_be_bytes());
                s.write_all(&hdr).unwrap();
                s.write_all(&[0u8; 10]).unwrap();
                stalled.push(s);
            }
            std::thread::sleep(Duration::from_millis(300));
        });
        let mut conn = FrameConn::connect(addr).unwrap();
        conn.set_read_deadline(Some(Duration::from_millis(50)))
            .unwrap();
        match conn.recv() {
            Err(FrameError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        // The same exchange one layer down, where the buffer is visible.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let (len, _crc) = read_header(&mut raw).unwrap();
        assert_eq!(len, MAX_FRAME);
        let mut buf = Vec::new();
        let err = read_body(&mut raw, len as usize, &mut buf).unwrap_err();
        assert!(matches!(FrameError::from(err), FrameError::Timeout));
        assert_eq!(buf.len(), 10);
        assert!(buf.capacity() <= RECV_CHUNK, "{} reserved", buf.capacity());
        writer.join().unwrap();
    }

    /// Yields `supply` bytes in reads of at most `step`, then times out.
    struct Stalling {
        supply: usize,
        step: usize,
    }

    impl Read for Stalling {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.supply == 0 {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let n = out.len().min(self.step).min(self.supply);
            out[..n].fill(0x5a);
            self.supply -= n;
            Ok(n)
        }
    }

    #[test]
    fn receive_buffer_never_outgrows_what_was_received_or_declared() {
        let declared = 5 * RECV_CHUNK + 123;
        for received in [
            0,
            1,
            RECV_CHUNK - 1,
            RECV_CHUNK,
            RECV_CHUNK + 1,
            2 * RECV_CHUNK,
            2 * RECV_CHUNK + 1,
            4 * RECV_CHUNK + 7,
            declared - 1,
        ] {
            let mut src = Stalling {
                supply: received,
                step: 1500,
            };
            let mut buf = Vec::new();
            assert!(read_body(&mut src, declared, &mut buf).is_err());
            assert_eq!(buf.len(), received);
            assert!(
                buf.capacity() <= RECV_CHUNK.max(2 * received).min(declared),
                "received {received}, reserved {}",
                buf.capacity()
            );
        }
        // A completed frame's buffer is exactly its frame, and the running
        // sum over the chunks is the one-shot sum.
        for len in [
            0,
            1,
            100,
            RECV_CHUNK - 1,
            RECV_CHUNK,
            RECV_CHUNK + 1,
            declared,
        ] {
            let mut src = Stalling {
                supply: len,
                step: 7001,
            };
            let mut buf = Vec::new();
            let crc = read_body(&mut src, len, &mut buf).unwrap();
            assert_eq!(buf.len(), len);
            assert_eq!(
                buf.capacity(),
                len,
                "slack pinned behind a {len}-byte frame"
            );
            assert_eq!(crc, crc32(&buf));
        }
        // The same from a reclaimed frame of `held` bytes: it keeps its
        // capacity while it is being overwritten and grows past it only as
        // a fresh buffer grows past its first chunk; whatever the next
        // frame's length, the completed frame is exactly that length and
        // none of the old bytes survive in it.
        for held in [RECV_CHUNK / 2, 3 * RECV_CHUNK] {
            let doubled = (2 * held + 1).min(declared - 1);
            for received in [0, 1, held - 1, held, held + 1, doubled, declared - 1] {
                let mut src = Stalling {
                    supply: received,
                    step: 1500,
                };
                let mut buf = vec![0x11; held];
                assert!(read_body(&mut src, declared, &mut buf).is_err());
                assert_eq!(buf.len(), received);
                assert!(
                    buf.capacity() <= held.max(RECV_CHUNK.max(2 * received).min(declared)),
                    "held {held}, received {received}, reserved {}",
                    buf.capacity()
                );
            }
            for len in [0, 1, held - 1, held, held + 1, declared] {
                let mut src = Stalling {
                    supply: len,
                    step: 7001,
                };
                let mut buf = vec![0x11; held];
                let crc = read_body(&mut src, len, &mut buf).unwrap();
                assert_eq!(buf.len(), len);
                assert_eq!(
                    buf.capacity(),
                    len,
                    "slack pinned behind a {len}-byte frame"
                );
                assert!(buf.iter().all(|&b| b == 0x5a), "an old byte survived");
                assert_eq!(crc, crc32(&buf));
            }
        }
    }

    /// Hands out whatever is asked for, as long as `data` lasts.
    struct Queued<'a> {
        data: &'a [u8],
        calls: usize,
    }

    impl Read for Queued<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = out.len().min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_queued_frame_fills_a_reclaimed_buffer_in_one_read() {
        let frame = noise(1 << 20);
        let mut src = Queued {
            data: &frame,
            calls: 0,
        };
        let mut buf = vec![0u8; frame.len()];
        let crc = read_body(&mut src, frame.len(), &mut buf).unwrap();
        assert!(src.calls <= 2, "{} reads", src.calls);
        assert_eq!((buf == frame, crc), (true, crc32(&frame)));
        // A fresh buffer reads at most one chunk at a time.
        let mut src = Queued {
            data: &frame,
            calls: 0,
        };
        let mut buf = Vec::new();
        read_body(&mut src, frame.len(), &mut buf).unwrap();
        assert!(src.calls >= frame.len() / RECV_CHUNK, "{} reads", src.calls);
        assert!(buf == frame);
    }

    /// Echo `[fill; len]` off `conn`'s peer and return the reply.
    fn echo(conn: &mut FrameConn, fill: u8, len: usize) -> Bytes {
        conn.send(&vec![fill; len]).unwrap();
        let reply = conn.recv().unwrap();
        assert!(reply.iter().all(|&b| b == fill) && reply.len() == len);
        reply
    }

    #[test]
    fn a_frame_the_caller_still_holds_is_never_written_over() {
        let server = FrameServer::spawn("127.0.0.1:0", |frame| Some(frame.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        let held = echo(&mut conn, 1, 100_000);
        // A slice outlives the frame it was cut from, as a cache entry does.
        let sliced = echo(&mut conn, 2, 100_000).slice(10..20);
        for fill in 3..6 {
            echo(&mut conn, fill, 100_000);
        }
        assert_eq!(held, vec![1u8; 100_000]);
        assert_eq!(sliced, vec![2u8; 10]);
    }

    #[test]
    fn a_released_frame_is_received_into_again() {
        let server = FrameServer::spawn("127.0.0.1:0", |frame| Some(frame.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        let first = echo(&mut conn, 1, 100_000).as_ptr();
        assert_eq!(echo(&mut conn, 2, 100_000).as_ptr(), first, "not reused");
        assert_eq!(echo(&mut conn, 3, 100_000).as_ptr(), first, "not reused");
        // The allocator may hand a fresh buffer the address just freed, so
        // look at what the next receive starts from: the frame itself.
        let next = conn.reclaim();
        assert_eq!((next.as_ptr(), next.len()), (first, 100_000));
        assert!(next.iter().all(|&b| b == 3));
    }

    #[test]
    fn a_lying_prefix_after_a_long_frame_times_out_without_growing_the_connection() {
        // A peer sends a 1 MiB frame, then declares the largest legal frame,
        // sends 10 bytes and stalls until the receiver is done.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let long = noise(1 << 20);
        let wire = encode_frame(&long).unwrap();
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut stalled = Vec::new();
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                s.write_all(&wire).unwrap();
                let mut hdr = [0u8; HDR_LEN];
                hdr[..4].copy_from_slice(&MAX_FRAME.to_be_bytes());
                s.write_all(&hdr).unwrap();
                s.write_all(&[0u8; 10]).unwrap();
                stalled.push(s);
            }
            let _ = wait.recv();
        });
        let mut conn = FrameConn::connect(addr).unwrap();
        conn.set_read_deadline(Some(Duration::from_millis(100)))
            .unwrap();
        assert!(conn.recv().unwrap() == long);
        assert_eq!(conn.last.as_ref().map(Bytes::len), Some(long.len()));
        match conn.recv() {
            Err(FrameError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(conn.last.is_none(), "a failed receive kept a buffer");
        // The same exchange one layer down, where the buffer is visible:
        // the stalled frame is read into the long frame's allocation, and
        // that allocation does not grow.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut buf = Vec::new();
        let (len, _crc) = read_header(&mut raw).unwrap();
        read_body(&mut raw, len as usize, &mut buf).unwrap();
        let (len, _crc) = read_header(&mut raw).unwrap();
        assert_eq!(len, MAX_FRAME);
        let err = read_body(&mut raw, len as usize, &mut buf).unwrap_err();
        assert!(matches!(FrameError::from(err), FrameError::Timeout));
        assert_eq!(buf.len(), 10);
        assert_eq!(
            buf.capacity(),
            long.len(),
            "the stalled frame grew the buffer"
        );
        done.send(()).unwrap();
        writer.join().unwrap();
    }

    /// Hands out `data` in reads of 1 – 7 bytes, cycling.
    struct Fragments<'a> {
        data: &'a [u8],
        calls: usize,
    }

    impl Read for Fragments<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = out.len().min(1 + self.calls % 7).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_frame_arriving_in_1_to_7_byte_fragments_is_summed_whole() {
        let payload = noise(200_000);
        let expected = crc32_bytewise(&payload);
        let wire = encode_frame(&payload).unwrap();
        let mut src = Fragments {
            data: &wire,
            calls: 0,
        };
        let (len, crc) = read_header(&mut src).unwrap();
        assert_eq!((len as usize, crc), (payload.len(), expected));
        let mut buf = Vec::new();
        assert_eq!(
            read_body(&mut src, len as usize, &mut buf).unwrap(),
            expected
        );
        assert_eq!(buf, payload);
        // The sans-IO decoder, fed the same fragments.
        let mut src = Fragments {
            data: &wire,
            calls: 0,
        };
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut piece = [0u8; 7];
        while let Ok(n @ 1..) = src.read(&mut piece) {
            dec.push(&piece[..n]);
            frames.extend(dec.next_frame().unwrap());
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(&frames[0][..], &payload[..]);
    }

    /// Accepts 1–7 bytes per call (only ever from the first non-empty
    /// slice) and fails with `Interrupted` once along the way.
    struct Dribble {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls == 3 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = data.len().min(1 + self.calls % 7);
            self.out.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_survives_short_and_interrupted_writes() {
        let head: Vec<u8> = (0..37u8).collect();
        let body: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        for (head, body) in [
            (&head[..], &body[..]),
            (&head[..], &[][..]),
            (&[][..], &body[..]),
            (&[][..], &[][..]),
        ] {
            let whole = [head, body].concat();
            let mut w = Dribble {
                out: Vec::new(),
                calls: 0,
            };
            let len = whole.len() as u32;
            write_frame(&mut w, len, crc32(&whole), head, body).unwrap();
            assert_eq!(w.out, encode_frame(&whole).unwrap());
        }
    }

    /// A raw listener that hands back the first `n` bytes it is sent.
    fn capture(n: usize) -> (SocketAddr, JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut got = vec![0u8; n];
            s.read_exact(&mut got).unwrap();
            got
        });
        (addr, reader)
    }

    #[test]
    fn parts_and_summed_sends_put_the_encode_frame_image_on_the_wire() {
        let head = b"eleven-byte".to_vec();
        let body = Summed::of(Bytes::from(vec![0xC3u8; 300_000]));
        let expect = encode_frame(&[&head[..], &body.bytes()[..]].concat()).unwrap();
        let (addr, reader) = capture(2 * expect.len());
        let mut conn = FrameConn::connect(addr).unwrap();
        conn.send_parts(&head, body.bytes()).unwrap();
        conn.send_summed(&head, &body).unwrap();
        assert_eq!(reader.join().unwrap(), [&expect[..], &expect[..]].concat());
    }

    #[test]
    fn a_received_frames_tail_carries_the_sum_of_exactly_its_bytes() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        let payload: Vec<u8> = (0..70_000u32).map(|i| ((i * 31) >> 3) as u8).collect();
        conn.send(&payload).unwrap();
        let frame = conn.recv_summed().unwrap();
        assert_eq!(&frame.bytes()[..], &payload[..]);
        assert_eq!(frame.sum(), Sum::of(&payload));
        for at in [0, 1, 16, 17, 69_999, 70_000] {
            let blob = frame.bytes().slice(at..);
            let tail = frame.tail(&blob).expect("a slice to the end is a tail");
            assert!(tail.is_buffer(&blob));
            assert_eq!(tail.sum(), Sum::of(&payload[at..]), "tail from {at}");
        }
        // Not the end of the frame, or not this frame at all: no sum.
        assert!(frame.tail(&frame.bytes().slice(5..100)).is_none());
        let copy = Bytes::from(payload[17..].to_vec());
        assert!(frame.tail(&copy).is_none());
        assert!(!frame.is_buffer(&Bytes::from(payload.clone())));
        let longer = Bytes::from(vec![0u8; 70_001]);
        assert!(frame.tail(&longer).is_none());
    }

    /// Two same-sized blobs, and the first paired with the second's sum —
    /// what the type's constructors cannot produce, built field by field.
    fn mispaired() -> (Vec<u8>, Summed) {
        let blob = Bytes::from(vec![0x11u8; 4096]);
        let other = Sum::of(&[0x22u8; 4096]);
        (
            b"head".to_vec(),
            Summed {
                bytes: blob,
                sum: other,
            },
        )
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another buffer's sum")]
    fn summed_send_refuses_a_buffer_paired_with_another_buffers_sum() {
        let (addr, _reader) = capture(1);
        let mut conn = FrameConn::connect(addr).unwrap();
        let (head, body) = mispaired();
        let _ = conn.send_summed(&head, &body);
    }

    #[test]
    fn a_wrong_sum_that_reaches_the_wire_is_rejected_by_the_receiver() {
        // Past the debug assertion (as a release build would be), the frame
        // carries a checksum that is not its payload's: the receiver, which
        // sums every byte it is given, reports Corrupt and yields nothing.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream).unwrap();
            let (head, body) = mispaired();
            conn.send_with(&head, body.bytes(), body.sum()).unwrap();
        });
        let mut conn = FrameConn::connect(addr).unwrap();
        match conn.recv_summed() {
            Err(e @ FrameError::Corrupt { .. }) => assert_eq!(e.fault(), FaultError::Corrupt),
            other => panic!("expected corrupt, got {other:?}"),
        }
        sender.join().unwrap();
    }

    #[test]
    fn read_deadline_yields_timeout() {
        // A server that never answers: recv must not hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (_s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let mut conn = FrameConn::connect(addr).unwrap();
        conn.set_read_deadline(Some(Duration::from_millis(40)))
            .unwrap();
        let start = std::time::Instant::now();
        match conn.recv() {
            Err(e @ FrameError::Timeout) => assert_eq!(e.fault(), FaultError::Timeout),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "deadline ignored"
        );
        hold.join().unwrap();
    }

    #[test]
    fn corrupt_payload_detected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let payload = b"immersive";
            let mut hdr = [0u8; HDR_LEN];
            hdr[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
            hdr[4..].copy_from_slice(&(crc32(payload) ^ 0xFFFF).to_be_bytes());
            s.write_all(&hdr).unwrap();
            s.write_all(payload).unwrap();
        });
        let mut conn = FrameConn::connect(addr).unwrap();
        match conn.recv() {
            Err(e @ FrameError::Corrupt { .. }) => assert_eq!(e.fault(), FaultError::Corrupt),
            other => panic!("expected corrupt, got {other:?}"),
        }
        writer.join().unwrap();
    }

    #[test]
    fn large_frame_round_trips() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let mut conn = FrameConn::connect(server.local_addr()).unwrap();
        let big = vec![0xabu8; 3 * 1024 * 1024];
        conn.send(&big).unwrap();
        let back = conn.recv().unwrap();
        assert_eq!(back.len(), big.len());
        assert!(back.iter().all(|&b| b == 0xab));
    }

    #[test]
    fn concurrent_clients() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut conn = FrameConn::connect(addr).unwrap();
                    for j in 0..20u8 {
                        let msg = [i as u8, j];
                        conn.send(&msg).unwrap();
                        assert_eq!(&conn.recv().unwrap()[..], &msg);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn graceful_shutdown_unblocks_clients_and_frees_port() {
        let mut server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let addr = server.local_addr();
        let mut conn = FrameConn::connect(addr).unwrap();
        conn.send(b"ping").unwrap();
        conn.recv().unwrap();
        // A blocked reader must be unblocked by shutdown, not hang.
        let reader = std::thread::spawn(move || conn.recv().is_err());
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        assert!(reader.join().unwrap(), "reader should observe an error");
        // The port is free again: a new server can bind it.
        drop(server);
        let rebound = FrameServer::spawn(addr, |f| Some(f.to_vec()));
        assert!(rebound.is_ok(), "port not released after shutdown");
    }

    #[test]
    fn drop_kills_server() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let addr = server.local_addr();
        drop(server);
        // New connections are refused (or immediately severed).
        match FrameConn::connect(addr) {
            Err(_) => {}
            Ok(mut c) => {
                c.set_read_deadline(Some(Duration::from_millis(100)))
                    .unwrap();
                let _ = c.send(b"x");
                assert!(c.recv().is_err(), "dead server answered");
            }
        }
    }

    /// The kernel this module shipped with until the table-sliced one
    /// replaced it: one lookup per byte. Kept as the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn the_fold_taps_are_a_multiple_of_the_polynomial() {
        // y^FOLD_SPAN ≡ Σ y^(FOLD_SPAN − t) over the taps, y = x⁶⁴: what
        // appending FOLD_SPAN words does to a register equals the XOR of
        // what appending the shorter runs does. A mistyped tap breaks it.
        let words = |n: usize| x_pow_bytes(8 * n as u64);
        let pushed = FOLD_TAPS
            .iter()
            .fold(0, |acc, &t| acc ^ words(FOLD_SPAN - t));
        assert_eq!(words(FOLD_SPAN), pushed);
        assert_eq!(
            x_pow_bytes(2400),
            x_pow_bytes(1240) ^ x_pow_bytes(936) ^ x_pow_bytes(712) ^ GF_ONE
        );
        assert!(FOLD_TAPS.is_sorted(), "blocks are as long as the first tap");
    }

    #[test]
    fn crc32_matches_reference_at_every_length_to_1_kib_and_offset() {
        // Both sides of CRC_INTERLEAVE_MIN, every remainder the chains can
        // leave, at every alignment of a step.
        let data = noise(1024 + CRC_SLICES);
        for offset in 0..CRC_SLICES {
            for len in 0..=1024 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_reference_around_every_whole_split_and_at_chunk_sizes() {
        // A whole number of steps per chain, one byte short of it and one
        // over, then the receive chunk and a 1 MiB reply.
        let per_split = CRC_CHAINS * CRC_SLICES;
        let data = noise((1 << 20) + 37 + 1);
        let lens = (1..=128).flat_map(|k| [per_split * k - 1, per_split * k, per_split * k + 1]);
        for len in lens.chain([RECV_CHUNK - 1, RECV_CHUNK, RECV_CHUNK + 1, (1 << 20) + 37]) {
            for offset in [0, 1] {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }

    /// Input lengths, in bytes, at which the fold's window has just
    /// filled `k` times (a copy to the front) or is one or `FOLD_SPAN`
    /// words either side of it, counted both in folded words and in all
    /// of the input's words, with `extra` bytes after the last word.
    fn fold_window_lengths(k: usize, extra: usize) -> Vec<usize> {
        let filled = k * (FOLD_WINDOW - FOLD_SPAN) + FOLD_SPAN;
        let near = |w: usize| [w - FOLD_SPAN, w - 1, w, w + 1, w + FOLD_SPAN];
        [filled, k * FOLD_WINDOW]
            .into_iter()
            .flat_map(near)
            .map(|words| 8 * words + extra)
            .collect()
    }

    #[test]
    fn the_fold_matches_reference_at_every_length_and_offset_around_its_threshold() {
        // Both kernels, every `len % 8` the tail can leave, every alignment.
        let data = noise(FOLD_MIN + 16 + 16);
        for offset in 0..16 {
            for len in FOLD_MIN - 8..=FOLD_MIN + 16 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn the_fold_alone_matches_reference_from_its_shortest_input() {
        // Below FOLD_MIN `update` never calls the fold, so call it directly:
        // an empty prefix, then each of the first blocks, word by word.
        let shortest = 8 * FOLD_SPAN;
        let data = noise(shortest + 8 * 2 * FOLD_TAPS[0] + 8);
        for len in shortest..=data.len() {
            let s = &data[..len];
            assert_eq!(crc_fold(!0, s) ^ !0, crc32_bytewise(s), "len {len}");
        }
    }

    #[test]
    fn the_fold_matches_reference_around_its_window_edges() {
        let lens: Vec<usize> = (1..=3)
            .flat_map(|k| fold_window_lengths(k, k + 2))
            .collect();
        let data = noise(lens.iter().max().unwrap() + 1);
        for len in lens {
            for offset in [0, 1] {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn the_fold_matches_reference_on_constant_input() {
        // All-zero input leaves only the register to carry the sum, and
        // all-0xFF input cancels it in the first word: both show a register
        // XORed into the wrong word, or not at all.
        for byte in [0x00, 0xFF] {
            let window = 8 * FOLD_WINDOW + 3;
            for len in [FOLD_MIN, FOLD_MIN + 5, RECV_CHUNK, window, 100_003] {
                let data = vec![byte; len];
                let whole = crc32_bytewise(&data);
                assert_eq!(crc32(&data), whole, "{byte:#x} × {len}");
                // A register other than the initial one comes in too.
                let (a, b) = data.split_at(7);
                assert_eq!(Crc32::new().update(a).update(b).finish(), whole);
            }
        }
    }

    #[test]
    fn streamed_updates_straddling_the_fold_threshold_and_window_match_reference() {
        let window = fold_window_lengths(1, 0);
        let data = noise(FOLD_MIN + window.iter().max().unwrap() + 64);
        let whole = crc32_bytewise(&data);
        // Each cut leaves one side just under, at or just over FOLD_MIN or
        // a window edge, so the two kernels hand the register to each other.
        let sides = [FOLD_MIN - 1, FOLD_MIN, FOLD_MIN + 1]
            .into_iter()
            .chain(window);
        for side in sides {
            for cut in [side, data.len() - side] {
                let (a, b) = data.split_at(cut);
                assert_eq!(
                    Crc32::new().update(a).update(b).finish(),
                    whole,
                    "{} bytes, cut {cut}",
                    data.len()
                );
            }
        }
        let (a, rest) = data.split_at(data.len() / 3);
        let (b, c) = rest.split_at(FOLD_MIN);
        assert_eq!(Crc32::new().update(a).update(b).update(c).finish(), whole);
    }

    #[test]
    fn crc32_streaming_equals_one_shot_at_every_split() {
        // Over 4 KiB each side of a cut is interleaved, plain, or empty.
        let short: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for data in [short, noise(4096)] {
            let whole = crc32_bytewise(&data);
            assert_eq!(crc32(&data), whole);
            for cut in 0..=data.len() {
                let (a, b) = data.split_at(cut);
                assert_eq!(
                    Crc32::new().update(a).update(b).finish(),
                    whole,
                    "{} bytes, cut {cut}",
                    data.len()
                );
            }
        }
    }

    /// Deterministic filler that is neither constant nor periodic in 256.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect()
    }

    #[test]
    fn sum_known_vector_and_identity() {
        let s = Sum::of(b"123456789");
        assert_eq!((s.crc(), s.len), (0xCBF4_3926, 9));
        let empty = Sum::of(b"");
        assert_eq!(empty, Sum::default());
        assert_eq!((empty.crc(), empty.len), (0, 0));
        // Empty operands on either side, and on both.
        assert_eq!(s.then(empty), s);
        assert_eq!(empty.then(s), s);
        assert_eq!(empty.then(empty), empty);
        assert_eq!(s.without_prefix(empty), s);
        assert_eq!(s.without_prefix(s), empty);
        assert_eq!(empty.without_prefix(empty), empty);
    }

    #[test]
    #[should_panic(expected = "a prefix is no longer than the whole")]
    fn without_prefix_rejects_a_head_longer_than_the_whole() {
        let _ = Sum::of(b"ab").without_prefix(Sum::of(b"abc"));
    }

    #[test]
    fn gf_multiply_is_the_ring_the_tables_live_in() {
        // x⁸ steps the register exactly as the bytewise table does, and the
        // multiply is commutative with GF_ONE as its identity.
        for c in [1u32, 0x8000_0000, 0xDEAD_BEEF, 0xFFFF_FFFF, 0x0001_0000] {
            let stepped = CRC_TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
            assert_eq!(gf_mul(c, X2N[3]), stepped, "{c:#x}·x⁸");
            assert_eq!(gf_mul(X2N[3], c), stepped);
            assert_eq!(gf_mul(c, GF_ONE), c);
        }
        // x has order 2³² − 1, which is what lets X2N wrap at 32.
        assert_eq!(gf_mul(X2N[31], X2N[31]), X2N[0]);
        assert_eq!(x_pow_bytes(0), GF_ONE);
        assert_eq!(x_pow_bytes(1), X2N[3]);
        assert_eq!(x_pow_bytes(3), gf_mul(X2N[3], X2N[4]));
    }

    #[test]
    fn then_equals_the_one_shot_sum_at_every_split_of_4_kib() {
        let data = noise(4096);
        let whole = Sum::of(&data);
        assert_eq!(whole.crc(), crc32_bytewise(&data));
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            let (sa, sb) = (Sum::of(a), Sum::of(b));
            assert_eq!(sa.then(sb), whole, "cut {cut}");
            assert_eq!(whole.without_prefix(sa), sb, "cut {cut}");
        }
    }

    #[test]
    fn then_holds_at_lengths_straddling_every_power_of_two_up_to_2_mib() {
        let data = noise((2 << 20) + 1);
        let head = &data[..37];
        let sh = Sum::of(head);
        for k in 0..=21u32 {
            for len in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                let body = &data[37..37 + len.min(data.len() - 37)];
                let sb = Sum::of(body);
                let whole = Crc32::new().update(head).update(body).finish();
                let folded = sh.then(sb);
                assert_eq!(folded.crc(), whole, "body of {} bytes", body.len());
                assert_eq!(folded.len, (head.len() + body.len()) as u64);
                assert_eq!(
                    folded.without_prefix(sh),
                    sb,
                    "body of {} bytes",
                    body.len()
                );
                // And with the long run first.
                assert_eq!(
                    sb.then(sh).crc(),
                    Crc32::new().update(body).update(head).finish(),
                    "head of {} bytes",
                    body.len()
                );
            }
        }
    }

    #[test]
    fn then_is_associative() {
        let data = noise(3000);
        let (a, rest) = data.split_at(700);
        let (b, c) = rest.split_at(1);
        let (sa, sb, sc) = (Sum::of(a), Sum::of(b), Sum::of(c));
        assert_eq!(sa.then(sb).then(sc), sa.then(sb.then(sc)));
        assert_eq!(sa.then(sb).then(sc), Sum::of(&data));
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_reference_on_random_input(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..70_000),
            offset in 0usize..16,
        ) {
            let s = data.get(offset..).unwrap_or_default();
            proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }

        #[test]
        fn sums_compose_over_random_triples(
            a in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
            b in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
            c in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
        ) {
            let (sa, sb, sc) = (Sum::of(&a), Sum::of(&b), Sum::of(&c));
            let all = [&a[..], &b[..], &c[..]].concat();
            let whole = sa.then(sb).then(sc);
            proptest::prop_assert_eq!(whole.crc(), crc32_bytewise(&all));
            proptest::prop_assert_eq!(whole, Sum::of(&all));
            proptest::prop_assert_eq!(whole, sa.then(sb.then(sc)));
            proptest::prop_assert_eq!(whole.without_prefix(sa), sb.then(sc));
            proptest::prop_assert_eq!(whole.without_prefix(sa.then(sb)), sc);
        }
    }

    #[test]
    #[ignore = "long kernel soak; run with --release -- --ignored"]
    fn soak_crc32_one_shot_and_streamed_match_the_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let data = noise((2 << 20) + CRC_SLICES);
        let mut rng = StdRng::seed_from_u64(25);
        for case in 0..5_000 {
            // Two fifths of the lengths uniform up to 2 MiB, two fifths
            // log-uniform, so that short inputs and the interleave threshold
            // come up too, and a fifth within FOLD_SPAN·2 words of the
            // fold's threshold or of a window edge.
            let len = match rng.random_range(0..5u32) {
                0 | 1 => rng.random_range(0..=2usize << 20),
                2 | 3 => {
                    let bits = rng.random_range(0..=21u32);
                    rng.random_range(0..=1usize << bits)
                }
                _ => {
                    let edges = fold_window_lengths(rng.random_range(1..=8usize), 0);
                    let edge = if rng.random_bool(0.25) {
                        FOLD_MIN
                    } else {
                        edges[rng.random_range(0..edges.len())]
                    };
                    let reach = 8 * 2 * FOLD_SPAN;
                    rng.random_range(edge.saturating_sub(reach)..=edge + reach)
                }
            };
            let offset = rng.random_range(0..CRC_SLICES);
            let s = &data[offset..offset + len];
            let expected = crc32_bytewise(s);
            assert_eq!(
                crc32(s),
                expected,
                "case {case}: offset {offset}, len {len}"
            );
            let mut cuts: Vec<usize> = (0..rng.random_range(1..=8usize))
                .map(|_| rng.random_range(0..=len))
                .collect();
            cuts.sort_unstable();
            let (mut crc, mut at) = (Crc32::new(), 0);
            for &cut in &cuts {
                crc = crc.update(&s[at..cut]);
                at = cut;
            }
            assert_eq!(
                crc.update(&s[at..]).finish(),
                expected,
                "case {case}: offset {offset}, len {len}, cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn transparent_proxy_relays() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let proxy = FaultProxy::spawn(
            server.local_addr(),
            FaultPlan {
                seed: 1,
                ..FaultPlan::default()
            },
        )
        .unwrap();
        let mut conn = FrameConn::connect(proxy.local_addr()).unwrap();
        for i in 0..10u8 {
            conn.send(&[i; 5]).unwrap();
            assert_eq!(&conn.recv().unwrap()[..], &[i; 5]);
        }
        let s = proxy.stats();
        assert_eq!(s.forwarded, 20); // 10 each way
        assert_eq!(s.dropped + s.truncated + s.conns_killed, 0);
    }

    #[test]
    fn proxy_truncation_surfaces_as_corrupt() {
        let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
        let plan = FaultPlan {
            seed: 7,
            truncate_frame: 1.0,
            ..FaultPlan::default()
        };
        let proxy = FaultProxy::spawn(server.local_addr(), plan).unwrap();
        let mut conn = FrameConn::connect(proxy.local_addr()).unwrap();
        // Every frame is corrupted, so the server drops the connection and
        // the client sees Corrupt or Closed — never a clean response.
        let _ = conn.send(b"immersion on the edge");
        match conn.recv() {
            Err(e) => assert!(
                matches!(e.fault(), FaultError::Corrupt | FaultError::Closed),
                "unexpected {e:?}"
            ),
            Ok(_) => panic!("corrupted traffic produced a clean reply"),
        }
        assert!(proxy.stats().truncated >= 1);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        // Two identical runs against the same plan must produce identical
        // event counts.
        let run = || {
            let server = FrameServer::spawn("127.0.0.1:0", |f| Some(f.to_vec())).unwrap();
            let plan = FaultPlan {
                seed: 42,
                drop_frame: 0.2,
                delay_frame: 0.2,
                delay_ms: 1,
                ..FaultPlan::default()
            };
            let proxy = FaultProxy::spawn(server.local_addr(), plan).unwrap();
            let mut conn = FrameConn::connect(proxy.local_addr()).unwrap();
            conn.set_read_deadline(Some(Duration::from_millis(100)))
                .unwrap();
            let mut answered = 0u32;
            for i in 0..40u8 {
                if conn.send(&[i]).is_err() {
                    break;
                }
                if conn.recv().is_ok() {
                    answered += 1;
                }
            }
            (answered, proxy.stats())
        };
        let (a1, s1) = run();
        let (a2, s2) = run();
        assert_eq!(s1, s2, "fault decisions diverged between runs");
        assert_eq!(a1, a2);
        assert!(s1.dropped > 0, "plan should have dropped something");
    }
}
