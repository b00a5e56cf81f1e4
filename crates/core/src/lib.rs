//! DeepStore: in-storage acceleration for intelligent queries.
//!
//! This crate is the paper's primary contribution — an SSD augmented with
//! neural-network accelerators at three levels of its internal hierarchy
//! (§4), a lightweight query engine on the embedded cores, a
//! similarity-based query cache, and a small programming API:
//!
//! * [`config`] — the Table 3 accelerator configurations and power
//!   budgets.
//! * [`accel`] — the scan timing/energy-count model for the SSD-,
//!   channel- and chip-level placements.
//! * [`engine`] — the functional in-storage engine: real flash pages,
//!   real similarity scores, map-reduce top-K.
//! * [`qcache`] — the similarity-based Query Cache (Algorithm 1).
//! * [`api`] — the Table 2 programming interface ([`DeepStore`]).
//! * [`persist`] — the manifest persisted inside a single-file mmap
//!   flash image ([`DeepStore::create`] / [`DeepStore::open`]).
//! * [`dse`] — the power-constrained design-space exploration.
//!
//! # Example
//!
//! ```
//! use deepstore_core::{DeepStore, DeepStoreConfig, QueryRequest};
//! use deepstore_nn::{zoo, ModelGraph};
//!
//! let mut store = DeepStore::in_memory(DeepStoreConfig::small());
//! let model = zoo::textqa().seeded(9);
//! let features: Vec<_> = (0..32).map(|i| model.random_feature(i)).collect();
//! let db = store.write_db(&features).unwrap();
//! let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
//! let qid = store
//!     .query(QueryRequest::new(model.random_feature(99), mid, db).k(3))
//!     .unwrap();
//! let result = store.results(qid).unwrap();
//! assert_eq!(result.top_k.len(), 3);
//!
//! // A batch shares one flash pass across co-pending queries:
//! let reqs: Vec<_> = (0..4)
//!     .map(|i| QueryRequest::new(model.random_feature(200 + i), mid, db).k(3))
//!     .collect();
//! let ids = store.query_batch(&reqs).unwrap();
//! assert_eq!(ids.len(), 4);
//! ```

pub mod accel;
pub mod api;
pub mod cluster;
pub mod config;
pub mod dse;
pub mod engine;
pub mod error;
pub mod persist;
pub mod proto;
pub mod qcache;
pub mod serve;
pub mod telemetry;

pub use accel::{scan, scan_batch, ScanTiming, ScanWorkload, ShardTiming};
pub use api::{DeepStore, ModelId, QueryHit, QueryId, QueryRequest, QueryResult};
pub use cluster::{
    ClusterDbId, ClusterHit, ClusterModelId, ClusterQueryRequest, ClusterQueryResult,
    DeepStoreCluster, PartitionScan, RebalanceReport,
};
pub use config::{AcceleratorConfig, AcceleratorLevel, DeepStoreConfig};
pub use engine::{DbId, ObjectId};
pub use error::{DeepStoreError, Result};
pub use persist::{ImageManifest, StoredModel, MANIFEST_VERSION};
pub use qcache::{QueryCache, QueryCacheConfig, ReplacementPolicy};
pub use serve::{
    channel_transport, serve, ChannelClient, ChannelConnector, QuotaConfig, ServeClock,
    ServeConfig, ServerHandle, ServerStats, TcpClient, TcpTransport, Transport,
};
pub use telemetry::{DeviceStats, StageTotals};
