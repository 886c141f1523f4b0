//! Strict JSON parser for the wire boundary, re-exported from
//! [`lockbind_obs::json`] (the workspace's one JSON codec) so the daemon's
//! `jsonin::parse` path keeps working.

pub use lockbind_obs::json::{parse, ParseError, MAX_DEPTH};
