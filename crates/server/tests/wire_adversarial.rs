//! Adversarial wire-protocol tests, mirroring `snapshot_adversarial.rs`
//! at the frame layer: truncations at every prefix length, every header
//! byte flip, hostile lengths, trailing bytes, unknown frame types, and
//! a seeded mutation fuzz loop — plus live-server legs proving a
//! poisoned connection never takes the server down. The contract under
//! attack: wire decoding returns a typed [`WireError`] — it never
//! panics, never allocates past the configured cap, and the server
//! stays serviceable afterward.

use sinw_server::net::{NetClient, NetConfig, NetServer};
use sinw_server::wire::{
    self, decode_frame, encode_frame, frame_type, ErrorCode, FrameEvent, Request, Response,
    WireError, WireJob, WIRE_MAGIC, WIRE_VERSION,
};
use sinw_switch::iscas::C17_BENCH;

/// A rich reference frame: a `SubmitJob` request with inline patterns,
/// so every payload section (tags, counts, bools, integers) is in the
/// attack surface.
fn reference_frame() -> Vec<u8> {
    let request = Request::SubmitJob(WireJob::FaultSim {
        key: 0x0123_4567_89AB_CDEF,
        patterns: vec![
            vec![true, false, true, true, false],
            vec![false, false, true, false, true],
            vec![true, true, true, false, false],
        ],
        drop_detected: true,
        threads: 2,
        timeout_ms: 30_000,
    });
    let (ty, payload) = request.encode();
    encode_frame(ty, &payload)
}

const MAX: u64 = wire::DEFAULT_MAX_PAYLOAD;

/// Decode one frame and, if it frames, decode the request too — the
/// full server-side ingest path, in-memory.
fn full_decode(bytes: &[u8]) -> Result<Request, WireError> {
    let (ty, payload) = decode_frame(bytes, MAX)?;
    Request::decode(ty, &payload)
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = reference_frame();
    assert!(full_decode(&bytes).is_ok(), "reference must decode");
    for len in 0..bytes.len() {
        let err = full_decode(&bytes[..len]).expect_err("every strict prefix must be rejected");
        if len < wire::FRAME_HEADER_LEN {
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "prefix of {len} bytes: expected Truncated, got {err}"
            );
        }
    }
}

#[test]
fn every_header_byte_flip_is_typed_by_field() {
    let bytes = reference_frame();
    for pos in 0..wire::FRAME_HEADER_LEN {
        for mask in [0x01u8, 0x40, 0xFF] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= mask;
            let result = full_decode(&corrupted);
            match pos {
                0..=3 => assert!(
                    matches!(result, Err(WireError::BadMagic { .. })),
                    "magic byte {pos}^{mask:#x}: got {result:?}"
                ),
                4..=5 => assert!(
                    matches!(result, Err(WireError::UnsupportedVersion { .. })),
                    "version byte {pos}^{mask:#x}: got {result:?}"
                ),
                // A flipped frame type is still a well-formed frame; it
                // must resolve to a typed decode error (the payload is a
                // fault-sim job) or, for byte-soup luck, a decode — just
                // never a panic.
                6..=7 => {
                    let _ = result;
                }
                8..=15 => assert!(
                    matches!(
                        result,
                        Err(WireError::Truncated { .. })
                            | Err(WireError::Oversized { .. })
                            | Err(WireError::TrailingBytes { .. })
                    ),
                    "length byte {pos}^{mask:#x}: got {result:?}"
                ),
                _ => assert!(
                    matches!(result, Err(WireError::ChecksumMismatch { .. })),
                    "checksum byte {pos}^{mask:#x}: got {result:?}"
                ),
            }
        }
    }
}

#[test]
fn hostile_lengths_die_before_allocation() {
    for declared in [u64::from(u32::MAX), u64::MAX, MAX + 1, 1 << 62] {
        let mut frame = reference_frame();
        frame[8..16].copy_from_slice(&declared.to_le_bytes());
        match full_decode(&frame) {
            Err(WireError::Oversized { declared: d, max }) => {
                assert_eq!(d, declared);
                assert_eq!(max, MAX);
            }
            other => panic!("declared {declared}: expected Oversized, got {other:?}"),
        }
    }
    // A length inside the cap but past the available bytes is typed
    // truncation, sized by the *input*, not the declaration.
    let mut frame = reference_frame();
    let body_len = frame.len() - wire::FRAME_HEADER_LEN;
    frame[8..16].copy_from_slice(&((body_len as u64) + 1000).to_le_bytes());
    assert!(matches!(
        full_decode(&frame),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn trailing_bytes_are_rejected_at_both_layers() {
    // After the frame payload.
    let mut frame = reference_frame();
    frame.extend_from_slice(b"tail");
    match full_decode(&frame) {
        Err(WireError::TrailingBytes { extra }) => assert_eq!(extra, 4),
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
    // Inside a payload: re-frame a valid request payload with junk
    // appended and a *correct* checksum, so only full-consumption
    // catches it.
    let (ty, mut payload) = Request::AwaitJob { job: 9 }.encode();
    payload.extend_from_slice(&[0xAB, 0xCD]);
    let frame = encode_frame(ty, &payload);
    match full_decode(&frame) {
        Err(WireError::TrailingBytes { extra }) => assert_eq!(extra, 2),
        other => panic!("expected payload TrailingBytes, got {other:?}"),
    }
}

#[test]
fn unknown_frame_types_and_hostile_counts_are_typed() {
    // Every unassigned request code is a typed unknown.
    for ty in [0x00u16, 0x09, 0x42, 0x7F] {
        let frame = encode_frame(ty, &[]);
        match full_decode(&frame) {
            Err(WireError::UnknownFrameType { found }) => assert_eq!(found, ty),
            other => panic!("type {ty:#x}: expected UnknownFrameType, got {other:?}"),
        }
    }
    // A hostile element count inside a valid frame (a u32::MAX pattern
    // count) dies on the bounds check, not on an allocation.
    let mut payload = Vec::new();
    payload.push(1u8); // FaultSim job tag
    payload.extend_from_slice(&7u64.to_le_bytes()); // key
    payload.push(1); // drop_detected
    payload.extend_from_slice(&1u32.to_le_bytes()); // threads
    payload.extend_from_slice(&0u64.to_le_bytes()); // timeout
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // pattern count
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // pattern width
    let frame = encode_frame(frame_type::SUBMIT_JOB, &payload);
    assert!(matches!(
        full_decode(&frame),
        Err(WireError::Truncated { .. }) | Err(WireError::Malformed { .. })
    ));
}

/// Seeded mutation fuzz ≥ 3000 cases over the full ingest path: single
/// flips, bursts, byte soup, and truncate-and-flip — `Ok` or a typed
/// error every time, never a panic.
#[test]
fn mutation_fuzz_never_panics() {
    let bytes = reference_frame();
    let mut state = 0x51F0_CAFE_F00D_5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    // Single-byte corruptions.
    for _ in 0..2000 {
        let mut corrupted = bytes.clone();
        let pos = (next() as usize) % corrupted.len();
        corrupted[pos] ^= (next() as u8) | 1;
        let _ = full_decode(&corrupted);
    }

    // Multi-byte bursts.
    for _ in 0..500 {
        let mut corrupted = bytes.clone();
        for _ in 0..1 + (next() as usize) % 8 {
            let pos = (next() as usize) % corrupted.len();
            corrupted[pos] = next() as u8;
        }
        let _ = full_decode(&corrupted);
    }

    // Random byte soup, with and without a valid magic prefix.
    for round in 0..500 {
        let len = (next() as usize) % 200;
        let mut soup: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        if round % 2 == 0 && soup.len() >= 4 {
            soup[0..4].copy_from_slice(&WIRE_MAGIC);
        }
        let _ = full_decode(&soup);
    }

    // Truncate-and-flip.
    for _ in 0..500 {
        let cut = (next() as usize) % bytes.len();
        let mut corrupted = bytes[..cut].to_vec();
        if !corrupted.is_empty() {
            let pos = (next() as usize) % corrupted.len();
            corrupted[pos] ^= next() as u8;
        }
        let _ = full_decode(&corrupted);
    }

    // Mutations with a *repaired* checksum, so the attack reaches the
    // payload decoders instead of dying at the checksum gate.
    for _ in 0..500 {
        let mut corrupted = bytes.clone();
        let pos =
            wire::FRAME_HEADER_LEN + (next() as usize) % (corrupted.len() - wire::FRAME_HEADER_LEN);
        corrupted[pos] = next() as u8;
        let fixed = wire::checksum(&corrupted[wire::FRAME_HEADER_LEN..]);
        corrupted[16..24].copy_from_slice(&fixed.to_le_bytes());
        let _ = full_decode(&corrupted);
    }
}

// ---------------------------------------------------------------------
// Live-server serviceability
// ---------------------------------------------------------------------

fn serve() -> NetServer {
    NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

#[test]
fn garbage_poisons_only_its_own_connection() {
    let server = serve();
    let addr = server.local_addr();

    // A connection that speaks garbage gets (at most) one error frame
    // and a close.
    let mut attacker = NetClient::connect(addr).expect("connect");
    attacker
        .send_raw(b"this is definitely not a SINP frame, not even close....")
        .expect("raw send");
    let frames = attacker.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1, "at most one best-effort error frame");

    // The server is untouched: a fresh client does real work.
    let mut client = NetClient::connect(addr).expect("reconnect");
    let (key, _) = client.register_bench("c17", C17_BENCH).expect("register");
    assert_ne!(key, 0);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, 1);
    server.shutdown();
}

#[test]
fn a_fuzz_storm_of_connections_leaves_the_server_serving() {
    let mut config = NetConfig::default();
    // Attack connections that send nothing must not pin a handler for
    // the default 60 s idle window.
    config.limits.idle_timeout = std::time::Duration::from_millis(500);
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let mut state = 0xBA_D5EE_D50F_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let template = reference_frame();
    for round in 0..40 {
        let mut client = NetClient::connect(addr).expect("connect");
        let blob: Vec<u8> = match round % 3 {
            // Pure soup.
            0 => (0..(next() as usize) % 128).map(|_| next() as u8).collect(),
            // A corrupted real frame.
            1 => {
                let mut f = template.clone();
                let pos = (next() as usize) % f.len();
                f[pos] ^= (next() as u8) | 1;
                f
            }
            // A truncated real frame.
            _ => template[..(next() as usize) % template.len()].to_vec(),
        };
        client.send_raw(&blob).expect("raw send");
        // EOF the write side so the server sees a finished (if bogus)
        // conversation; whatever happens next, it terminates.
        let _ = client.shutdown_write();
        let _ = client.drain_until_closed();
    }
    // After the storm the server still compiles, runs jobs, answers.
    let mut client = NetClient::connect(addr).expect("post-storm connect");
    let (key, _) = client.register_bench("c17", C17_BENCH).expect("register");
    let job = client
        .submit(WireJob::Campaign {
            key,
            seed: 3,
            timeout_ms: 60_000,
        })
        .expect("submit");
    let outcome = client.await_job(job, |_, _| {}).expect("await");
    assert!(
        matches!(outcome, wire::WireOutcome::Campaign { .. }),
        "post-storm campaign ran: {outcome:?}"
    );
    server.shutdown();
}

#[test]
fn well_framed_unknown_requests_leave_the_connection_serving() {
    let server = serve();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");

    // An unknown-but-well-framed request type: typed error frame, and
    // the *same* connection keeps working.
    client
        .send_raw(&encode_frame(0x55, &[1, 2, 3]))
        .expect("raw send");
    match client.recv_raw().expect("error frame") {
        FrameEvent::Frame {
            frame_type: ty,
            payload,
        } => match Response::decode(ty, &payload).expect("typed response") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownRequest),
            other => panic!("expected an error frame, got {other:?}"),
        },
        other => panic!("expected a frame, got {other:?}"),
    }
    // A malformed payload under a known type is also survivable: the
    // frame checksum is valid, only the payload decode fails.
    client
        .send_raw(&encode_frame(frame_type::AWAIT_JOB, &[1, 2, 3]))
        .expect("raw send");
    match client.recv_raw().expect("error frame") {
        FrameEvent::Frame {
            frame_type: ty,
            payload,
        } => match Response::decode(ty, &payload).expect("typed response") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected an error frame, got {other:?}"),
        },
        other => panic!("expected a frame, got {other:?}"),
    }
    // Same connection, real work.
    let (key, bytes) = client.register_bench("c17", C17_BENCH).expect("register");
    assert!(bytes > 0);
    assert_eq!(client.register_bench("c17", C17_BENCH).expect("hit").0, key);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, 1, "the hit compiled nothing");
    server.shutdown();
}

#[test]
fn version_and_checksum_attacks_get_typed_rejections() {
    let server = serve();
    let addr = server.local_addr();

    // Future protocol version.
    let mut client = NetClient::connect(addr).expect("connect");
    let mut frame = encode_frame(frame_type::STATS, &[]);
    frame[4..6].copy_from_slice(&(WIRE_VERSION + 7).to_le_bytes());
    client.send_raw(&frame).expect("raw send");
    let frames = client.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1);

    // Corrupted checksum.
    let mut client = NetClient::connect(addr).expect("connect");
    let mut frame = reference_frame();
    frame[17] ^= 0x10;
    client.send_raw(&frame).expect("raw send");
    let frames = client.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1);

    // Oversized declaration: rejected before the server allocates.
    let mut client = NetClient::connect(addr).expect("connect");
    let mut frame = encode_frame(frame_type::STATS, &[]);
    frame[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    client.send_raw(&frame).expect("raw send");
    let frames = client.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1);

    // And the server still serves.
    let mut client = NetClient::connect(addr).expect("connect");
    assert!(client.stats().is_ok());
    server.shutdown();
}
