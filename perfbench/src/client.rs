//! The open-loop service client: one connection, a sender thread that
//! follows a fixed schedule whatever the server does, and a reader
//! thread that stamps every answer.
//!
//! Request `i` is due at `start + offsets[i]`. Its latency is measured
//! from when it was due, not from when it was sent, so a stall anywhere
//! — in the server, on the socket or in the sender — shows up as
//! queueing delay on every later request instead of silently slowing
//! the schedule down.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use indra_serve::{decode_frame, encode_frame, Frame, Verdict};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The shard answered.
    Response {
        /// What it concluded.
        verdict: Verdict,
        /// Delivery-to-response resurrectee cycles (0 unless served).
        latency_cycles: u64,
    },
    /// Turned away at admission.
    Rejected,
    /// No answer before the drain deadline.
    Lost,
}

/// One request's timeline.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When the sender actually wrote it.
    pub sent: Instant,
    /// When the reader decoded its answer (`None` if lost).
    pub answered: Option<Instant>,
    /// The answer.
    pub answer: Answer,
}

impl Sample {
    /// Due-time latency in milliseconds (`None` if lost).
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        self.answered.map(|a| due_latency_ms(self.due, a))
    }

    /// How late the sender was against the schedule, in milliseconds.
    #[must_use]
    pub fn lag_ms(&self) -> f64 {
        due_latency_ms(self.due, self.sent)
    }
}

/// Milliseconds from `due` to `at` (0 if `at` is earlier).
#[must_use]
pub fn due_latency_ms(due: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Everything one open-loop phase observed.
#[derive(Debug)]
pub struct PhaseRun {
    /// When request 0 was due.
    pub start: Instant,
    /// One entry per request, in send order.
    pub samples: Vec<Sample>,
    /// Nanoseconds spent encoding each request frame (only when timed).
    pub encode_ns: Vec<u64>,
    /// Nanoseconds spent decoding each answer frame (only when timed).
    pub decode_ns: Vec<u64>,
}

impl PhaseRun {
    /// Seconds from the first due time to the last answer.
    #[must_use]
    pub fn span_s(&self) -> f64 {
        let last = self.samples.iter().filter_map(|s| s.answered).max().unwrap_or(self.start);
        last.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// Sends `payloads` (malicious flag, bytes), request `i` at
/// `offsets[i]` after the start, with ids `first_id..`, waits up to
/// `drain` after the last send for the answers, and returns every
/// request's timeline. With `timed`, frame encode and decode times are
/// measured too.
///
/// # Errors
///
/// Connection or socket write failure.
pub fn run_phase(
    addr: SocketAddr,
    offsets: &[Duration],
    payloads: &[(bool, Vec<u8>)],
    first_id: u64,
    drain: Duration,
    timed: bool,
) -> std::io::Result<PhaseRun> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    assert_eq!(offsets.len(), payloads.len(), "one due time per request");
    let n = payloads.len();
    let answered = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + offsets[i];

    let (sent, encode_ns, answers, decode_ns) = std::thread::scope(|scope| {
        let answered = &answered;
        let read = scope.spawn(move || {
            let mut answers: Vec<Option<(Instant, Answer)>> = vec![None; n];
            let mut decode_ns = Vec::new();
            let mut buf = Vec::new();
            while let Ok((frame, took)) = read_one(&mut reader, &mut buf, timed) {
                let at = Instant::now();
                decode_ns.extend(took);
                let (id, answer) = match frame {
                    Frame::Response { id, verdict, latency_cycles, .. } => {
                        (id, Answer::Response { verdict, latency_cycles })
                    }
                    Frame::Rejected { id, .. } => (id, Answer::Rejected),
                    _ => continue,
                };
                let slot = id.checked_sub(first_id).and_then(|i| usize::try_from(i).ok());
                if let Some(entry) = slot.and_then(|i| answers.get_mut(i)) {
                    if entry.is_none() {
                        *entry = Some((at, answer));
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            (answers, decode_ns)
        });

        let mut sent = Vec::with_capacity(n);
        let mut encode_ns = Vec::new();
        let mut send_error = None;
        for (i, (malicious, data)) in payloads.iter().enumerate() {
            let target = due(i);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            // Open loop: a late sender sends at once and never bursts
            // ahead of the schedule to catch up.
            let frame = Frame::Request {
                id: first_id + i as u64,
                malicious: *malicious,
                data: data.clone(),
            };
            let t0 = Instant::now();
            let bytes = encode_frame(&frame);
            if timed {
                encode_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            sent.push(Instant::now());
            if let Err(e) = writer.write_all(&bytes) {
                send_error = Some(e);
                break;
            }
        }
        let deadline = Instant::now() + drain;
        while answered.load(Ordering::SeqCst) < sent.len() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Unblocks the reader with a clean end of stream.
        let _ = stream.shutdown(Shutdown::Both);
        let (answers, decode_ns) = read.join().expect("reader thread does not panic");
        match send_error {
            Some(e) => Err(e),
            None => Ok((sent, encode_ns, answers, decode_ns)),
        }
    })?;

    let samples = sent
        .iter()
        .zip(answers)
        .enumerate()
        .map(|(i, (&sent, got))| Sample {
            due: due(i),
            sent,
            answered: got.map(|(at, _)| at),
            answer: got.map_or(Answer::Lost, |(_, a)| a),
        })
        .collect();
    Ok(PhaseRun { start, samples, encode_ns, decode_ns })
}

/// Due offsets of `n` requests evenly `gap` apart, except that every
/// `pair_every`-th request is due together with the one before it (0:
/// never).
#[must_use]
pub fn paced_offsets(gap: Duration, n: usize, pair_every: usize) -> Vec<Duration> {
    (0..n)
        .map(|i| {
            let paired = i.checked_div(pair_every).unwrap_or(0);
            gap * u32::try_from(i - paired).expect("fits")
        })
        .collect()
}

/// Reads one whole frame and decodes it, timing only the decode.
fn read_one(r: &mut TcpStream, buf: &mut Vec<u8>, timed: bool) -> Result<(Frame, Option<u64>), ()> {
    buf.resize(8, 0);
    r.read_exact(&mut buf[..8]).map_err(|_| ())?;
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("sized")) as usize;
    if len > indra_serve::MAX_FRAME as usize {
        return Err(());
    }
    buf.resize(8 + len, 0);
    r.read_exact(&mut buf[8..]).map_err(|_| ())?;
    let t0 = Instant::now();
    let (frame, _) = decode_frame(buf).map_err(|_| ())?;
    let took = timed.then(|| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    Ok((frame, took))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn paced_schedule_pairs_every_kth_request_with_its_predecessor() {
        let ms = Duration::from_millis;
        assert_eq!(paced_offsets(ms(5), 5, 2), vec![ms(0), ms(5), ms(5), ms(10), ms(10)]);
        assert_eq!(paced_offsets(ms(5), 5, 4), vec![ms(0), ms(5), ms(10), ms(15), ms(15)]);
        assert_eq!(paced_offsets(ms(5), 3, 0), vec![ms(0), ms(5), ms(10)]);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let answered = sent + Duration::from_millis(5);
        let s = Sample {
            due,
            sent,
            answered: Some(answered),
            answer: Answer::Response { verdict: Verdict::Served, latency_cycles: 1 },
        };
        // A late sender does not hide its lateness from the latency.
        assert!((s.latency_ms().expect("answered") - 35.0).abs() < 1e-6);
        assert!((s.lag_ms() - 30.0).abs() < 1e-6);
        assert_eq!(due_latency_ms(sent, due), 0.0);
    }

    /// A server that stalls on its first request and then answers
    /// everything at once: every request queued behind the stall must
    /// carry it in its latency, less only how much later it was due.
    #[test]
    fn a_stalled_server_inflates_the_latency_of_later_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stall = Duration::from_millis(200);
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            for i in 0..10 {
                let (frame, _) = read_one(&mut conn, &mut buf, false).expect("request");
                if i == 0 {
                    // Stalls once it has the first request in hand.
                    std::thread::sleep(stall);
                }
                let Frame::Request { id, .. } = frame else { panic!("expected a request") };
                let reply =
                    Frame::Response { id, shard: 0, verdict: Verdict::Served, latency_cycles: 7 };
                conn.write_all(&encode_frame(&reply)).expect("reply");
            }
        });
        let payloads: Vec<(bool, Vec<u8>)> = (0..10).map(|i| (false, vec![i])).collect();
        let offsets = paced_offsets(Duration::from_millis(10), 10, 0);
        let run = run_phase(addr, &offsets, &payloads, 1000, Duration::from_secs(5), true)
            .expect("phase runs");
        server.join().expect("server");
        assert_eq!(run.samples.len(), 10);
        assert_eq!(run.encode_ns.len(), 10);
        assert_eq!(run.decode_ns.len(), 10);
        for (i, s) in run.samples.iter().enumerate() {
            let floor = stall.as_secs_f64() * 1e3 - i as f64 * 10.0;
            let got = s.latency_ms().expect("answered");
            assert!(got >= floor - 1.0, "request {i}: {got} ms < {floor} ms");
            assert!(matches!(s.answer, Answer::Response { latency_cycles: 7, .. }));
        }
        // The last request was due 90 ms in, well before the stall ended.
        assert!(run.samples[9].latency_ms().expect("answered") > 100.0);
    }

    #[test]
    fn unanswered_requests_are_lost_not_dropped() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let (frame, _) = read_one(&mut conn, &mut buf, false).expect("request");
            let Frame::Request { id, .. } = frame else { panic!("expected a request") };
            conn.write_all(&encode_frame(&Frame::Rejected {
                id,
                reason: indra_serve::RejectReason::QueueFull,
            }))
            .expect("reply");
            // Reads the rest and never answers.
            let _ = std::io::copy(&mut conn, &mut std::io::sink());
        });
        let payloads: Vec<(bool, Vec<u8>)> = (0..3).map(|i| (false, vec![i])).collect();
        let run = run_phase(
            addr,
            &paced_offsets(Duration::from_millis(1), 3, 0),
            &payloads,
            0,
            Duration::from_millis(100),
            false,
        )
        .expect("phase runs");
        server.join().expect("server");
        let answers: Vec<Answer> = run.samples.iter().map(|s| s.answer).collect();
        assert_eq!(answers, vec![Answer::Rejected, Answer::Lost, Answer::Lost]);
        assert!(run.encode_ns.is_empty());
    }
}
