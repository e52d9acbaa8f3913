//! # cackle-serve — multi-tenant serving front-end
//!
//! The paper's evaluation drives one aggregate trace through one fleet;
//! production warehouses serve *many tenants* through that fleet and
//! must answer two questions the aggregate view cannot: who may run
//! right now, and who pays for what. This crate is that front-end,
//! sitting between `cackle-workload`'s trace generators and the
//! existing `RunSpec`/`RunResult` runners:
//!
//! * [`tenant`] — tenant specs, priority classes, and the registry,
//!   including the homogeneous decomposition of one aggregate trace
//!   into `n` per-tenant streams (via `cackle_workload::superpose`).
//! * [`admission`] — per-tenant token-bucket quotas (integer
//!   milli-tokens) plus global queue-depth backpressure; rejections and
//!   deferrals are counted, never silently dropped.
//! * [`scheduler`] — weighted deficit round-robin across priority
//!   classes, with a per-second dispatch budget into the shared fleet.
//! * [`attribution`] — exact per-tenant cost shares: each layer's
//!   integer micro-dollar total is split by metered usage with the
//!   largest-remainder method, so shares sum to the aggregate ledger
//!   byte-identically.
//! * [`run`] — the serving loop tying it together: [`run_serve`] takes
//!   a [`ServeSpec`], a profile mix, and the fleet's provisioning
//!   strategy (like every runner), and returns a [`ServeResult`] with the
//!   aggregate [`cackle::RunResult`] plus a [`TenantReport`] per tenant.
//!
//! Everything is deterministic integer state driven by simulated
//! seconds: reruns are byte-identical, and the inner runner's worker
//! count remains a pure throughput knob (DESIGN.md §9, §13).

pub mod admission;
pub mod attribution;
pub mod run;
pub mod scheduler;
pub mod tenant;

pub use admission::{AdmissionConfig, QuotaSpec, TokenBucket};
pub use attribution::{attribute, Attribution, Meter};
pub use run::{run_serve, Runner, ServeResult, ServeSpec, TenantReport};
pub use scheduler::{QueuedQuery, SchedulerConfig, WdrrScheduler};
pub use tenant::{PriorityClass, TenantRegistry, TenantSpec};
