//! The open-loop load generator of `mix_open`: one thread, two non-blocking
//! connections, requests sent when they are due whether or not earlier ones
//! completed, latency counted from the due time.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use coic_core::protocol::Msg;
use coic_core::services::ClientLogic;
use coic_core::task::TaskRequest;
use coic_netsim::rt::{encode_frame, FrameDecoder};
use coic_workload::Request;

use crate::live::{peak_rss_mb, query, verify, Content, Ledger, Measured, Tally};
use crate::spec::CLIENTS;
use crate::stats::Sample;

/// Wire request ids start here, clear of the ids the warm-up client used:
/// the edge keys a recognition miss's pending upload by request id alone.
const FIRST_REQ_ID: u64 = 1_000_000;
/// How long after the last due time the generator waits for stragglers
/// before it counts them as hung.
const GRACE: Duration = Duration::from_secs(5);

/// One scheduled request with its frames built ahead of the timed run, so
/// that at its due time the generator only has to write bytes.
pub struct Scheduled {
    pub due_ns: u64,
    pub request: Request,
    query: Vec<u8>,
    /// The full task, sent if the edge answers `NeedPayload`.
    upload: Option<Vec<u8>>,
}

/// Prepare the schedule (part of set-up): client preprocessing of every
/// request and the wire image of its query and, for recognition, its upload.
pub fn prepare(logic: &ClientLogic, schedule: &[(u64, Request)]) -> Vec<Scheduled> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, &(due_ns, request))| {
            let req_id = FIRST_REQ_ID + i as u64;
            let prepared = logic.prepare(&request);
            let frame = |msg: Msg| encode_frame(&msg.encode()).expect("request fits a frame");
            let query = frame(query(req_id, &prepared));
            let upload = match prepared.task {
                task @ TaskRequest::Recognition { .. } => Some(frame(Msg::Upload { req_id, task })),
                _ => None,
            };
            Scheduled {
                due_ns,
                request,
                query,
                upload,
            }
        })
        .collect()
}

struct Conn {
    stream: TcpStream,
    /// Bytes accepted for sending and not yet written.
    out: VecDeque<u8>,
    decoder: FrameDecoder,
    /// Schedule indices awaiting a reply, oldest first: the edge answers a
    /// connection's frames in order.
    inflight: VecDeque<usize>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: VecDeque::new(),
            decoder: FrameDecoder::new(),
            inflight: VecDeque::new(),
        })
    }

    /// Write as much of the backlog as the socket takes.
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            let (head, _) = self.out.as_slices();
            match self.stream.write(head) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Move whatever has arrived into the decoder.
    fn fill(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Send `schedule` at its due times and collect the replies. Request `i`
/// rides connection `i mod 2`, pipelined behind whatever that connection
/// still owes. A reply later than `limit_ns` after its due time, or none at
/// all, misses the limit.
pub fn run_open(
    addr: SocketAddr,
    content: &Content,
    schedule: &[Scheduled],
    limit_ns: u64,
) -> std::io::Result<Measured> {
    let epoch = Instant::now();
    run_open_on(
        || epoch.elapsed().as_nanos() as u64,
        addr,
        content,
        schedule,
        limit_ns,
    )
}

/// [`run_open`] on a given clock (nanoseconds since the timed run began);
/// the self-test stalls the generator by making the clock jump.
fn run_open_on(
    mut clock: impl FnMut() -> u64,
    addr: SocketAddr,
    content: &Content,
    schedule: &[Scheduled],
    limit_ns: u64,
) -> std::io::Result<Measured> {
    let mut conns = (0..CLIENTS)
        .map(|_| Conn::open(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut out = Measured::default();
    let mut verdicts = vec![None; schedule.len()];
    let mut buf = vec![0u8; 256 * 1024];
    let horizon_ns = schedule.last().map_or(0, |s| s.due_ns);
    let mut next = 0;
    loop {
        let now_ns = clock();
        while next < schedule.len() && schedule[next].due_ns <= now_ns {
            let conn = &mut conns[next % CLIENTS];
            conn.out.extend(&schedule[next].query);
            conn.inflight.push_back(next);
            out.late_ns.push(now_ns - schedule[next].due_ns);
            next += 1;
        }
        for conn in &mut conns {
            conn.flush()?;
            conn.fill(&mut buf)?;
            while let Some(frame) = conn
                .decoder
                .next_frame()
                .map_err(|e| std::io::Error::other(e.to_string()))?
            {
                let Some(i) = conn.inflight.pop_front() else {
                    return Err(std::io::Error::other("reply without a request"));
                };
                let (result, hit) = match Msg::decode(&frame) {
                    Ok(Msg::NeedPayload { .. }) if schedule[i].upload.is_some() => {
                        conn.out
                            .extend(schedule[i].upload.as_deref().unwrap_or_default());
                        conn.inflight.push_back(i);
                        continue;
                    }
                    Ok(Msg::Hit { result, .. }) | Ok(Msg::PeerResult { result, .. }) => {
                        (Some(result), true)
                    }
                    Ok(Msg::Result { result, .. }) => (Some(result), false),
                    // Overloaded, Unavailable or a protocol violation.
                    _ => (None, false),
                };
                match result {
                    Some(result) => {
                        let verdict = verify(content, &schedule[i].request, &result);
                        let done_ns = clock();
                        out.tally.count(verdict, hit);
                        verdicts[i] = Some(verdict);
                        if verdict != crate::live::Verdict::Wrong {
                            let lat_ns = done_ns - schedule[i].due_ns;
                            out.samples.push(Sample::new(done_ns, lat_ns));
                            out.within_limit += u64::from(lat_ns <= limit_ns);
                        }
                    }
                    None => out.tally.count_failure(),
                }
            }
        }
        let idle = conns.iter().all(|c| c.inflight.is_empty());
        if next == schedule.len() && idle {
            break;
        }
        if now_ns > horizon_ns + GRACE.as_nanos() as u64 {
            // Hung past the deadline: every request still owed failed.
            for _ in conns.iter().flat_map(|c| &c.inflight) {
                out.tally.count_failure();
            }
            break;
        }
        // Spin, never sleep or yield: a generator that gives its processor
        // away polls late by however long the scheduler keeps it away, and
        // the median then measures the scheduler.
        std::hint::spin_loop();
    }
    out.wall_ns = clock();
    out.peak_rss_mb = peak_rss_mb(out.samples.len());
    let mut ledger = Ledger::default();
    for (i, v) in verdicts.into_iter().enumerate() {
        ledger.fold(i as u64, &schedule[i].request, v);
    }
    out.ledger = ledger;
    Ok(out)
}

/// Share of requests sent that completed within the limit.
pub fn slo_share(m: &Measured) -> f64 {
    let Tally { attempted, .. } = m.tally;
    if attempted == 0 {
        0.0
    } else {
        m.within_limit as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_core::task::TaskResult;
    use coic_netsim::rt::FrameServer;
    use coic_workload::{RequestKind, UserId, ZoneId};

    /// An edge that answers every panorama query with a hit at once.
    fn instant_edge(content: &Content) -> FrameServer {
        let panos = content.panos.clone();
        FrameServer::spawn("127.0.0.1:0", move |frame| {
            match Msg::decode(&frame).ok()? {
                Msg::Query {
                    req_id,
                    hint: Some(TaskRequest::Panorama { frame_id }),
                    ..
                } => Some(
                    Msg::Hit {
                        req_id,
                        result: TaskResult::Panorama(panos.get(frame_id).0),
                    }
                    .encode()
                    .to_vec(),
                ),
                _ => None,
            }
        })
        .unwrap()
    }

    #[test]
    fn a_generator_stall_counts_against_the_requests_it_delayed() {
        let content = Content::new(64);
        let edge = instant_edge(&content);
        let logic = content.client_logic();
        // 200 requests, one due every 250 us: a 50 ms schedule.
        let schedule: Vec<(u64, Request)> = (0..200u64)
            .map(|i| {
                let request = Request {
                    user: UserId(0),
                    zone: ZoneId(0),
                    at_ns: 0,
                    kind: RequestKind::Panorama { frame_id: i % 4 },
                };
                (i * 250_000, request)
            })
            .collect();
        let prepared = prepare(&logic, &schedule);
        // The generator loses the processor for 20 ms once the run is 10 ms
        // old: its clock jumps, and the 80 requests due meanwhile go late.
        let epoch = Instant::now();
        let mut stalled = false;
        let clock = move || {
            let mut now = epoch.elapsed().as_nanos() as u64;
            if now >= 10_000_000 && !stalled {
                stalled = true;
                std::thread::sleep(Duration::from_millis(20));
                now = epoch.elapsed().as_nanos() as u64;
            }
            now
        };
        let limit_ns = 5_000_000;
        let m = run_open_on(clock, edge.local_addr(), &content, &prepared, limit_ns).unwrap();
        assert_eq!((m.tally.attempted, m.tally.failed), (200, 0));
        assert_eq!(m.tally.hits, 200);
        let worst_late = *m.late_ns.iter().max().unwrap();
        assert!(worst_late >= 15_000_000, "stall not seen: {worst_late}");
        // Latency runs from the due time, so the stalled requests carry
        // their wait; timed from the send they would all look fast.
        let worst_lat = m.samples.iter().map(|s| s.lat_ns()).max().unwrap();
        assert!(worst_lat >= worst_late, "{worst_lat} < {worst_late}");
        let missed = m.tally.attempted - m.within_limit;
        // The 60 requests due in the first 15 ms of the stall, give or take
        // what else the machine was doing.
        assert!(missed >= 40, "missed the limit: {missed}");
        assert!((slo_share(&m) - m.within_limit as f64 / 200.0).abs() < 1e-12);
    }
}
