//! # un-rest — the orchestrator's REST interface
//!
//! Figure 1 shows the NF-FG arriving at the local orchestrator through a
//! REST server. This crate provides one over real TCP sockets — a small
//! hand-rolled HTTP/1.1 implementation (no async runtime; a thread per
//! connection, which is plenty for a control plane):
//!
//! | Method | Path | Body | Action |
//! |---|---|---|---|
//! | `PUT` | `/nffg/<id>` | NF-FG JSON | deploy (or update if deployed) |
//! | `GET` | `/nffg/<id>` | — | fetch the deployed graph |
//! | `DELETE` | `/nffg/<id>` | — | undeploy |
//! | `GET` | `/nffg` | — | list deployed graph ids |
//! | `GET` | `/node` | — | node description & capabilities |
//!
//! [`http`] contains the protocol plumbing (parser/serializer, tested in
//! isolation) and the one accept loop both APIs are served by; [`api`]
//! maps requests onto a shared [`un_core::UniversalNode`].
//!
//! [`cluster`] is the same surface one layer up: the route table of a
//! domain-level API (`/domain/…`) mapping onto a shared
//! [`un_domain::Domain`] — deploy whole NF-FGs across the fleet,
//! inspect the overlay, declare node failures, scrape fleet metrics
//! (`GET /metrics`, Prometheus text exposition), and read the recent
//! control-plane event ring (`GET /domain/events`). [`render`] owns
//! every wire format those routes speak: `un-domain` hands out typed
//! reports and never builds a document.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod api;
pub mod cluster;
pub mod http;
pub mod render;

pub use api::{serve, NodeHandle, RestServer};
pub use cluster::{handle_cluster, serve_cluster, ClusterServer, DomainHandle};
pub use http::{Request, Response, Server, StatusCode};
