//! The repository benchmark: the shipped `rtm` binary driven from outside,
//! plus a traced in-process replay of the same requests.
//!
//! Workloads (each generated from `--seed`):
//!
//! * `serve-mix` ([`serve_mix`]) — a closed loop of two connections to
//!   `rtm serve --threads 2`; mostly repeated hot queries, a fixed share of
//!   never-seen traces that make the daemon's LRU evict.
//! * `compile-suite` and `large-trace` ([`batch`]) — sequential
//!   `rtm place|simulate --trace F --json` invocations over the suite, and
//!   over three ~10^5-access traces.
//!
//! With `--trace 0` a run reports the end-to-end metrics ([`run`]); with
//! `--trace 1` it reports the per-layer metrics ([`layers`]) of a traced
//! replay ([`replay`], [`spans`]). Every answer passes the independent
//! check of [`check`].

pub mod batch;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod proc;
pub mod query;
pub mod replay;
pub mod run;
pub mod serve_mix;
pub mod spans;
pub mod stats;
