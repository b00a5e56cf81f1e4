//! The host↔device wire protocol.
//!
//! The Table 2 APIs "internally use new NVMe commands to interact with
//! the query engine" (§4.7.2). This example runs a full session through
//! the framed command protocol: every call is serialized to bytes,
//! handled by the device endpoint, and the response parsed back —
//! exactly what a kernel driver would do with vendor-specific NVMe
//! commands.
//!
//! ```sh
//! cargo run --release --example wire_protocol
//! ```

use deepstore::core::proto::{encode_command, Command, Device, HostClient};
use deepstore::core::{AcceleratorLevel, DeepStoreConfig, DeepStoreError};
use deepstore::flash::FlashError;
use deepstore::nn::{zoo, ModelGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut device = Device::new(DeepStoreConfig::small());

    // Show what a frame looks like on the wire.
    let model = zoo::textqa().seeded_metric(3);
    let probe_cmd = Command::Query {
        qfv: model.random_feature(0),
        k: 3,
        model: deepstore::core::ModelId(1),
        db: deepstore::core::DbId(1),
        level: AcceleratorLevel::Channel,
        exact: false,
        request_id: 0,
        sched_lag_ns: 0,
    };
    let frame = encode_command(&probe_cmd);
    println!(
        "a `query` frame: {} bytes (header {:02x?} + JSON payload)",
        frame.len(),
        &frame[..10]
    );

    // Full session through the client.
    let mut host = HostClient::new(&mut device);
    let features: Vec<_> = (0..64).map(|i| model.random_feature(i)).collect();
    let db = host.write_db(&features)?;
    println!("writeDB     -> {db:?}");
    let mid = host.load_model(&ModelGraph::from_model(&model))?;
    println!("loadModel   -> {mid:?}");
    let qid = host.query(
        &model.random_feature(17),
        3,
        mid,
        db,
        AcceleratorLevel::Channel,
        false,
    )?;
    println!("query       -> {qid:?}");
    let results = host.get_results(qid)?;
    println!(
        "getResults  -> {} hits in simulated {} (best: feature {})",
        results.top_k.len(),
        results.elapsed,
        results.top_k[0].feature_index
    );
    // Feature 17's exact duplicate was the query, so it must win.
    assert_eq!(results.top_k[0].feature_index, 17);

    // Errors come back as frames too, never as device crashes, and
    // carry the very error the local API returns.
    let err = host.read_db(deepstore::core::DbId(99), 0, 1).unwrap_err();
    println!("bad readDB  -> {err}");
    assert_eq!(
        err.device_error(),
        Some(DeepStoreError::Flash(FlashError::UnknownDb(99)))
    );
    println!("device handled {} frames total", device.frames_handled());
    Ok(())
}
