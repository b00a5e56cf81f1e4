//! Frame-level robustness for the wire protocol and the server loop.
//!
//! The contract under attack: malformed input — truncated frames,
//! oversized length prefixes, unknown opcodes, wrong magic/version,
//! mid-frame disconnects, arbitrary garbage — always produces a
//! *typed* [`ProtoError`] (or a typed `Malformed` response frame from
//! the server), never a panic, and never wedges the serving loop: the
//! server keeps answering other clients after every abuse.

use deepstore::core::proto::{
    decode_command, decode_response, encode_command, encode_response, read_frame, write_frame,
    Command, CommandChannel, Device, HostClient, ProtoError, Response, HEADER_LEN, MAGIC,
    MAX_FRAME_LEN, PROTOCOL_VERSION, VERSION,
};
use deepstore::core::serve::{channel_transport, serve, ServeConfig, TcpClient, TcpTransport};
use deepstore::core::{
    AcceleratorLevel, DbId, DeepStore, DeepStoreConfig, DeepStoreError, ModelId, QueryCacheConfig,
    QueryId, QueryRequest,
};
use deepstore::flash::{FlashError, PageAddr};
use deepstore::nn::{zoo, ModelGraph, Tensor};
use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A channel that answers every command with one fixed frame.
struct Canned(Vec<u8>);

impl CommandChannel for Canned {
    fn exchange(&mut self, _frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
        Ok(self.0.clone())
    }
}

fn sample_commands() -> Vec<Command> {
    let t = Tensor::random(vec![8], 1.0, 7);
    vec![
        Command::WriteDb {
            features: vec![t.clone(), t.clone()],
        },
        Command::AppendDb {
            db: DbId(3),
            features: vec![t.clone()],
        },
        Command::ReadDb {
            db: DbId(3),
            start: 1,
            num: 2,
        },
        Command::LoadModel {
            graph: ModelGraph::from_model(&zoo::textqa().seeded(1))
                .to_bytes()
                .expect("graph serializes"),
        },
        Command::SetQc {
            config: QueryCacheConfig {
                capacity: 4,
                threshold: 0.1,
                qcn_accuracy: 1.0,
            },
        },
        Command::Query {
            qfv: t.clone(),
            k: 3,
            model: ModelId(1),
            db: DbId(1),
            level: AcceleratorLevel::Channel,
            exact: false,
            request_id: 42,
            sched_lag_ns: 1_500,
        },
        Command::GetResults { query: QueryId(12) },
        Command::QueryBatch {
            requests: vec![QueryRequest::new(t, ModelId(1), DbId(1)).k(2)],
            request_id: 0,
            sched_lag_ns: 0,
        },
        Command::Stats,
        Command::Metrics,
        Command::Dump,
        Command::Hello {
            client: "tenant-a".into(),
            version: PROTOCOL_VERSION,
        },
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::DbCreated(DbId(1)),
        Response::Appended,
        Response::Features(vec![Tensor::random(vec![4], 1.0, 3)]),
        Response::ModelLoaded(ModelId(2)),
        Response::QcConfigured,
        Response::QuerySubmitted {
            id: QueryId(9),
            request_id: 42,
        },
        Response::BatchSubmitted {
            ids: vec![QueryId(1), QueryId(2)],
            request_id: 7,
        },
        Response::Metrics {
            text: "# TYPE deepstore_serve_frames counter\ndeepstore_serve_frames 3\n".into(),
        },
        Response::Dump {
            json: "{\"reason\":\"explicit\",\"entries\":[]}".into(),
        },
        Response::HelloAck {
            client: "tenant-a".into(),
            version: PROTOCOL_VERSION,
        },
    ]
    .into_iter()
    .chain(sample_errors().into_iter().map(Response::Error))
    .collect()
}

/// One error per [`DeepStoreError`] variant, with one per
/// [`FlashError`] variant inside `Flash`: every value an error frame
/// can carry.
fn sample_errors() -> Vec<DeepStoreError> {
    let addr = PageAddr {
        channel: 1,
        chip: 2,
        plane: 0,
        block: 5,
        page: 9,
    };
    let flash = [
        FlashError::AddressOutOfRange("channel 40 of 32".into()),
        FlashError::ProgramWithoutErase(addr),
        FlashError::ReadUnwritten(addr),
        FlashError::UncorrectableEcc(addr),
        FlashError::OutOfSpace,
        FlashError::UnknownDb(99),
        FlashError::SizeMismatch {
            expected: 800,
            found: 28,
        },
        FlashError::Image("manifest fails its CRC".into()),
        // `From<FlashError>` promotes this one; inside `Flash` it must
        // still cross the wire as itself.
        FlashError::VersionMismatch {
            expected: 1,
            found: 2,
        },
    ];
    [
        DeepStoreError::UnknownModel(ModelId(7)),
        DeepStoreError::UnknownQuery(QueryId(8)),
        DeepStoreError::LevelUnsupported {
            model: "reid".into(),
            level: AcceleratorLevel::Chip,
        },
        DeepStoreError::InsufficientCoverage {
            required: 0.9,
            achieved: 0.25,
        },
        DeepStoreError::VersionMismatch {
            expected: PROTOCOL_VERSION,
            found: PROTOCOL_VERSION + 1,
        },
        DeepStoreError::Overloaded { queue_depth: 64 },
        DeepStoreError::QuotaExceeded {
            client: "tenant-a".into(),
        },
        DeepStoreError::Malformed("bad magic".into()),
        DeepStoreError::Remote("server is shutting down".into()),
    ]
    .into_iter()
    .chain(flash.into_iter().map(DeepStoreError::Flash))
    .collect()
}

#[test]
fn every_command_frame_roundtrips() {
    for cmd in sample_commands() {
        let frame = encode_command(&cmd);
        assert_eq!(&frame[..4], &MAGIC);
        assert_eq!(frame[4], VERSION);
        assert_eq!(decode_command(&frame).expect("decodes"), cmd);
    }
}

#[test]
fn every_response_frame_roundtrips() {
    for resp in sample_responses() {
        let frame = encode_response(&resp);
        assert_eq!(decode_response(&frame).expect("decodes"), resp);
    }
    // An error frame hands the client the error itself, and only the
    // admission rejections count as rejections.
    for err in sample_errors() {
        let frame = encode_response(&Response::Error(err.clone()));
        let got = HostClient::over(Canned(frame)).stats().unwrap_err();
        let rejection = matches!(
            err,
            DeepStoreError::Overloaded { .. } | DeepStoreError::QuotaExceeded { .. }
        );
        assert_eq!(got.is_rejection(), rejection, "{err:?}");
        assert_eq!(got.device_error(), Some(err));
    }
    // Results and Stats frames round-trip through a real device
    // session (their payloads are too stateful to hand-construct).
    let model = zoo::textqa().seeded(2);
    let mut device = Device::new(DeepStoreConfig::small());
    let mut host = HostClient::new(&mut device);
    let features: Vec<Tensor> = (0..16).map(|i| model.random_feature(i)).collect();
    let db = host.write_db(&features).unwrap();
    let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
    let qid = host
        .query(
            &model.random_feature(99),
            3,
            mid,
            db,
            AcceleratorLevel::Ssd,
            false,
        )
        .unwrap();
    assert_eq!(host.get_results(qid).unwrap().top_k.len(), 3);
    assert!(host.stats().is_ok());
}

#[test]
fn truncation_at_every_split_point_is_typed() {
    for cmd in sample_commands() {
        let frame = encode_command(&cmd);
        for cut in 0..frame.len() {
            match decode_command(&frame[..cut]) {
                Err(
                    ProtoError::Truncated
                    | ProtoError::BadMagic
                    | ProtoError::BadPayload(_)
                    | ProtoError::FrameTooLarge { .. },
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }
    for resp in sample_responses() {
        let frame = encode_response(&resp);
        for cut in 0..frame.len() {
            assert!(
                decode_response(&frame[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }
}

#[test]
fn header_corruption_is_typed() {
    let frame = encode_command(&Command::Stats);
    // Bad magic.
    let mut bad = frame.clone();
    bad[0] = b'X';
    assert_eq!(decode_command(&bad).unwrap_err(), ProtoError::BadMagic);
    // Bad version.
    let mut bad = frame.clone();
    bad[4] = 9;
    assert_eq!(decode_command(&bad).unwrap_err(), ProtoError::BadVersion(9));
    // Unknown opcodes: zero, past the last command, response-range.
    for opcode in [0x00u8, 0x0D, 0x42, 0xFF] {
        let mut bad = frame.clone();
        bad[5] = opcode;
        assert_eq!(
            decode_command(&bad).unwrap_err(),
            ProtoError::UnknownOpcode(opcode)
        );
    }
    // Length prefix longer than the body.
    let mut bad = frame.clone();
    bad[6..10].copy_from_slice(&1_000u32.to_le_bytes());
    assert_eq!(decode_command(&bad).unwrap_err(), ProtoError::Truncated);
    // Bytes past the declared length: a second frame is not dropped.
    let two = [frame.clone(), frame.clone()].concat();
    assert!(matches!(
        decode_command(&two).unwrap_err(),
        ProtoError::BadPayload(_)
    ));
    // Oversized length prefix is rejected before any allocation.
    let mut bad = frame;
    bad[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode_command(&bad).unwrap_err() {
        ProtoError::FrameTooLarge { len, max } => {
            assert_eq!(len, u64::from(u32::MAX));
            assert_eq!(max, MAX_FRAME_LEN as u64);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn stream_reader_handles_eof_and_oversize() {
    use std::io::Cursor;
    // Clean EOF at a frame boundary: end of stream, not an error.
    assert_eq!(read_frame(&mut Cursor::new(Vec::new())).unwrap(), None);
    // Mid-frame disconnect at every split point: typed ConnectionClosed.
    let frame = encode_command(&Command::Hello {
        client: "eof".into(),
        version: PROTOCOL_VERSION,
    });
    for cut in 1..frame.len() {
        assert_eq!(
            read_frame(&mut Cursor::new(frame[..cut].to_vec())).unwrap_err(),
            ProtoError::ConnectionClosed,
            "cut at {cut}"
        );
    }
    // An oversized length prefix never allocates the claimed buffer.
    let mut huge = frame.clone();
    huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_frame(&mut Cursor::new(huge)).unwrap_err(),
        ProtoError::FrameTooLarge { .. }
    ));
    // write_frame framing round-trips.
    let mut buf = Vec::new();
    write_frame(&mut buf, &frame).unwrap();
    assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), Some(frame));
}

/// Garbage over the in-process transport: the server answers each bad
/// frame with a typed `Malformed` error and the connection (and the
/// server) keep working.
#[test]
fn served_connection_survives_garbage_frames() {
    let mut store = DeepStore::in_memory(DeepStoreConfig::small());
    store.disable_qc();
    let (transport, connector) = channel_transport();
    let handle = serve(transport, store, ServeConfig::default());

    let conn = connector.connect().unwrap();
    // Whole-frame garbage (the channel transport is message-oriented,
    // so framing survives; decoding must not).
    for garbage in [
        b"not a frame at all".to_vec(),
        vec![],
        vec![0xFF; 64],
        {
            let mut f = encode_command(&Command::Stats);
            f[5] = 0x77; // unknown opcode
            f
        },
        {
            let mut f = encode_command(&Command::Stats);
            let len = f.len();
            f.truncate(len - 1); // truncated payload... of a 0-len payload frame
            f
        },
        // Two whole frames in one message: refused, not answered once.
        [
            encode_command(&Command::Stats),
            encode_command(&Command::Stats),
        ]
        .concat(),
    ] {
        conn.send_frame(&garbage).unwrap();
        match decode_response(&conn.recv_frame().unwrap()).unwrap() {
            Response::Error(DeepStoreError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
    // The same connection still completes a real session.
    let mut host = HostClient::over(conn);
    host.hello("after-garbage").unwrap();
    assert!(host.stats().is_ok());

    let (_store, stats) = handle.shutdown();
    assert!(stats.malformed_frames >= 4, "stats = {stats:?}");
}

/// TCP-level abuse: partial frames, oversized prefixes and mid-frame
/// disconnects must not wedge the accept loop — a well-behaved client
/// connecting afterwards completes a full session.
#[test]
fn tcp_server_survives_partial_frames_and_disconnects() {
    let model = zoo::textqa().seeded(5);
    let mut store = DeepStore::in_memory(DeepStoreConfig::small());
    store.disable_qc();
    let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
    let handle = serve(transport, store, ServeConfig::default());
    let endpoint = handle.endpoint().to_string();

    // 1. Connect and vanish without sending anything.
    drop(TcpStream::connect(&endpoint).unwrap());
    // 2. Send half a header, then disconnect mid-frame.
    let mut s = TcpStream::connect(&endpoint).unwrap();
    s.write_all(&MAGIC[..2]).unwrap();
    drop(s);
    // 3. Send a full header claiming a huge payload, then disconnect.
    let mut s = TcpStream::connect(&endpoint).unwrap();
    let mut frame = encode_command(&Command::Stats);
    frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&frame[..HEADER_LEN]).unwrap();
    // The server answers Malformed (FrameTooLarge) and hangs up.
    let reply = read_frame(&mut s).unwrap();
    match reply {
        Some(bytes) => match decode_response(&bytes).unwrap() {
            Response::Error(DeepStoreError::Malformed(msg)) => {
                assert!(msg.contains("exceeds"), "unexpected message: {msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        },
        None => panic!("server closed without a typed error frame"),
    }
    drop(s);
    // 4. A fresh, honest client still gets full service.
    let mut host = HostClient::over(TcpClient::connect(&endpoint).unwrap());
    host.hello("survivor").unwrap();
    let features: Vec<Tensor> = (0..16).map(|i| model.random_feature(i)).collect();
    let db = host.write_db(&features).unwrap();
    let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
    let qid = host
        .query(
            &model.random_feature(50),
            2,
            mid,
            db,
            AcceleratorLevel::Ssd,
            false,
        )
        .unwrap();
    assert_eq!(host.get_results(qid).unwrap().top_k.len(), 2);
    drop(host);

    // Give the per-connection threads a beat to notice the dropped
    // sockets, then shut down (shutdown joins them all — a wedged
    // loop would hang here, failing the test by timeout).
    std::thread::sleep(Duration::from_millis(20));
    let (_store, stats) = handle.shutdown();
    assert_eq!(stats.connections, 4);
    assert!(stats.malformed_frames >= 1);
}

/// A device shared between channels, so a bare [`Device`] can be
/// reached over more than one connection.
#[derive(Clone)]
struct SharedDevice(Arc<Mutex<Device>>);

impl CommandChannel for SharedDevice {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
        Ok(self.0.lock().unwrap().handle(frame))
    }
}

/// Sends one command and decodes the answer.
fn ask(chan: &mut dyn CommandChannel, cmd: &Command) -> Response {
    decode_response(&chan.exchange(&encode_command(cmd)).unwrap()).unwrap()
}

/// Asserts that `chan` still answers a valid two-feature query.
fn answers_a_query(chan: impl CommandChannel, qfv: &Tensor) {
    let mut host = HostClient::over(chan);
    let (mid, db, level) = (ModelId(1), DbId(1), AcceleratorLevel::Ssd);
    let qid = host.query(qfv, 2, mid, db, level, false).unwrap();
    assert_eq!(host.get_results(qid).unwrap().top_k.len(), 2);
}

/// Well-formed frames with hostile values — a `k` no allocation can
/// hold, a `readDB` range past `u64::MAX`, query-cache settings the
/// cache refuses — each get a typed answer, from a bare device and over
/// a served connection, and leave the endpoint serving: the same
/// connection and a new one both answer a valid query afterwards. A `k`
/// larger than the database ranks every feature.
#[test]
fn hostile_frames_get_typed_answers_and_leave_the_device_serving() {
    const FEATURES: u64 = 16;
    let model = zoo::textqa().seeded(5);
    let qfv = model.random_feature(50);
    let store = || {
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        store.disable_qc();
        let features: Vec<Tensor> = (0..FEATURES).map(|i| model.random_feature(i)).collect();
        store.write_db(&features).unwrap();
        store.load_model(&ModelGraph::from_model(&model)).unwrap();
        store
    };
    let huge_k = 1usize << 60;
    let set_qc = |capacity, threshold| Command::SetQc {
        config: QueryCacheConfig {
            capacity,
            threshold,
            qcn_accuracy: 1.0,
        },
    };
    let frames = [
        Command::Query {
            qfv: qfv.clone(),
            k: huge_k,
            model: ModelId(1),
            db: DbId(1),
            level: AcceleratorLevel::Channel,
            exact: false,
            request_id: 0,
            sched_lag_ns: 0,
        },
        Command::QueryBatch {
            requests: vec![
                QueryRequest::new(qfv.clone(), ModelId(1), DbId(1)).k(huge_k),
                QueryRequest::new(qfv.clone(), ModelId(1), DbId(1))
                    .k(huge_k)
                    .exact(),
            ],
            request_id: 0,
            sched_lag_ns: 0,
        },
        Command::ReadDb {
            db: DbId(1),
            start: u64::MAX - 1,
            num: 5,
        },
        set_qc(0, 0.1),
        set_qc(4, f64::NAN),
    ];
    // Checks one hostile frame's answer on `chan`, fetching the
    // rankings of an accepted huge-`k` query.
    let check = |chan: &mut dyn CommandChannel, cmd: &Command| {
        let ids = match (cmd, ask(chan, cmd)) {
            (Command::Query { .. }, Response::QuerySubmitted { id, .. }) => vec![id],
            (Command::QueryBatch { .. }, Response::BatchSubmitted { ids, .. }) => ids,
            (
                Command::ReadDb { .. },
                Response::Error(DeepStoreError::Flash(FlashError::AddressOutOfRange(_))),
            )
            | (Command::SetQc { .. }, Response::Error(DeepStoreError::Malformed(_))) => vec![],
            (_, other) => panic!("{cmd:?} answered {other:?}"),
        };
        for query in ids {
            match ask(chan, &Command::GetResults { query }) {
                Response::Results(r) => {
                    let mut got: Vec<u64> = r.top_k.iter().map(|h| h.feature_index).collect();
                    got.sort_unstable();
                    assert_eq!(got, (0..FEATURES).collect::<Vec<_>>(), "{cmd:?}");
                }
                other => panic!("results of {cmd:?}: {other:?}"),
            }
        }
    };

    let device = SharedDevice(Arc::new(Mutex::new(Device::with_store(store()))));
    for cmd in &frames {
        let mut chan = device.clone();
        check(&mut chan, cmd);
        answers_a_query(chan, &qfv);
        answers_a_query(device.clone(), &qfv);
    }

    let (transport, connector) = channel_transport();
    let handle = serve(transport, store(), ServeConfig::default());
    for cmd in &frames {
        let mut conn = connector.connect().unwrap();
        check(&mut conn, cmd);
        answers_a_query(conn, &qfv);
        answers_a_query(connector.connect().unwrap(), &qfv);
    }
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the decoders; any accepted frame
    /// re-encodes to semantically identical bytes.
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // A typed decode error is fine; an accepted frame must re-encode
        // to something that decodes back to the same value.
        if let Ok(cmd) = decode_command(&bytes) {
            prop_assert_eq!(decode_command(&encode_command(&cmd)).unwrap(), cmd);
        }
        if let Ok(resp) = decode_response(&bytes) {
            prop_assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    /// Corrupting any single byte of a valid frame either still decodes
    /// (payload bytes that JSON tolerates) or fails typed — never panics.
    #[test]
    fn single_byte_corruption_never_panics(idx in 0usize..64, delta in 1u8..=255) {
        let frame = encode_command(&Command::Query {
            qfv: Tensor::random(vec![6], 1.0, 9),
            k: 2,
            model: ModelId(1),
            db: DbId(1),
            level: AcceleratorLevel::Ssd,
            exact: false,
            request_id: 5,
            sched_lag_ns: 0,
        });
        let mut corrupted = frame.clone();
        let i = idx % frame.len();
        corrupted[i] = corrupted[i].wrapping_add(delta);
        let _ = decode_command(&corrupted); // must return, not panic
    }
}
