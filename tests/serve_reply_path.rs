//! The `fleetd` reply path under client behaviour the request/response
//! tests never produce: many frames pipelined into one write, a frame
//! split across two writes, and a client that sends and then vanishes
//! without reading a single reply.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use indra_serve::proto::{read_frame, write_frame};
use indra_serve::{
    encode_frame, replay_state_dir, Daemon, EngineConfig, Frame, HealthReply, ServeConfig,
};
use indra_workloads::{
    attack_request, benign_request, build_app_scaled, detectable_attack_suite, ServiceApp,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("indra-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(dir: &std::path::Path, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        engine: EngineConfig { app: ServiceApp::Httpd, scale: 60, ..EngineConfig::default() },
        shards: 2,
        queue_depth,
        checkpoint_every: 3,
        state_dir: dir.to_path_buf(),
        port: 0,
        replicas: 1,
        rejuvenate_every: None,
    }
}

fn request(id: u64) -> Frame {
    Frame::Request { id, malicious: false, data: benign_request(id as u8, 0x41) }
}

fn connect(daemon: &Daemon) -> TcpStream {
    let stream = TcpStream::connect(daemon.addr()).expect("connect");
    // A lost reply must fail the test, not hang it.
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
    stream
}

fn health(stream: &mut TcpStream) -> HealthReply {
    write_frame(stream, &Frame::Health).expect("send health");
    match read_frame(stream).expect("health reply") {
        Frame::HealthReply(h) => h,
        other => panic!("expected HealthReply, got {other:?}"),
    }
}

#[test]
fn pipelined_burst_and_split_frame_each_get_exactly_one_reply() {
    let dir = scratch("serve-pipelined");
    // Queues shallower than the burst, so both reply kinds show up.
    let daemon = Daemon::start(test_config(&dir, 4)).expect("start daemon");
    let mut conn = connect(&daemon);

    let burst = 24u64;
    let bytes: Vec<u8> = (0..burst).flat_map(|id| encode_frame(&request(id))).collect();
    conn.write_all(&bytes).expect("one write for the whole burst");
    // One more frame, cut inside its header and sent in two writes.
    let split = encode_frame(&request(burst));
    conn.write_all(&split[..5]).expect("first half");
    std::thread::sleep(Duration::from_millis(50));
    conn.write_all(&split[5..]).expect("second half");

    let mut replies: BTreeMap<u64, u32> = BTreeMap::new();
    let (mut admitted, mut rejected) = (0u64, 0u64);
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    while admitted + rejected < burst + 1 {
        let id = match read_frame(&mut reader).expect("reply") {
            Frame::Response { id, .. } => {
                admitted += 1;
                id
            }
            Frame::Rejected { id, .. } => {
                rejected += 1;
                id
            }
            other => panic!("unexpected frame {other:?}"),
        };
        *replies.entry(id).or_default() += 1;
    }
    let expected: BTreeMap<u64, u32> = (0..=burst).map(|id| (id, 1)).collect();
    assert_eq!(replies, expected, "every id answered exactly once");
    assert!(admitted > 0, "the burst must not be rejected wholesale");
    drop(reader);
    drop(conn);

    let report = daemon.stop().expect("stop");
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.stats.served + report.stats.detections, admitted);
    let replayed = replay_state_dir(&dir).expect("replay");
    assert_eq!(replayed.stats.to_json(), report.stats.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_that_never_reads_does_not_hurt_the_shards() {
    let dir = scratch("serve-vanished");
    // Deep enough that nothing is rejected: every request must count.
    let daemon = Daemon::start(test_config(&dir, 16)).expect("start daemon");

    // Client A: K requests in one write, then gone without reading.
    let k = 8u64;
    let mut a = connect(&daemon);
    let bytes: Vec<u8> = (0..k).flat_map(|id| encode_frame(&request(id))).collect();
    a.write_all(&bytes).expect("client A burst");
    drop(a);

    // Client B is served normally while A's replies hit a dead socket;
    // its exploits give HEALTH detections to account for.
    let image = build_app_scaled(ServiceApp::Httpd, 60);
    let attacks = detectable_attack_suite(&image);
    let mut b = connect(&daemon);
    let m = 6u64;
    for id in 100..100 + m {
        let frame = if id % 3 == 2 {
            let data = attack_request(attacks[id as usize % attacks.len()], &image);
            Frame::Request { id, malicious: true, data }
        } else {
            request(id)
        };
        write_frame(&mut b, &frame).expect("client B request");
        match read_frame(&mut b).expect("client B reply") {
            Frame::Response { id: got, .. } => assert_eq!(got, id),
            other => panic!("client B expected its Response, got {other:?}"),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let live = loop {
        let h = health(&mut b);
        if h.served + h.detections >= k + m {
            assert_eq!(h.rejected, 0, "{h:?}");
            break h;
        }
        assert!(Instant::now() < deadline, "client A's requests never completed: {h:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    drop(b);

    let report = daemon.stop().expect("a vanished client must not fail a shard");
    assert_eq!(report.stats.served + report.stats.detections, k + m, "A's requests count");
    // HEALTH's running detection tally agrees with the final stats.
    assert!(live.detections >= 1, "client B's exploits must be detected: {live:?}");
    assert_eq!(live.detections, report.stats.detections);
    assert_eq!(live.detection_insns, report.stats.detection_latency_insns);
    let replayed = replay_state_dir(&dir).expect("replay");
    assert_eq!(replayed.stats.to_json(), report.stats.to_json(), "replay is byte-identical");
    assert_eq!(replayed.requests_replayed, k + m);

    let _ = std::fs::remove_dir_all(&dir);
}
