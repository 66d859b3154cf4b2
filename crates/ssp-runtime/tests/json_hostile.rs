//! Hostile-input property tests for the runtime's JSON surfaces.
//!
//! The distributed backend makes these readers network-facing: a metrics
//! dump or flight log can arrive over a socket from a peer that was
//! SIGKILLed mid-write, is running a different version, or is simply
//! hostile. The contract under test: every byte sequence either parses or
//! yields a typed error ([`json::JsonError`]) — **never** a panic, never an
//! unbounded allocation. (Checkpoint cuts travel as the binary
//! `GroupManifest`, whose truncation and bit-flip tests live beside its
//! codec in `recover.rs`.)

use proptest::prelude::*;
use ssp_runtime::json;
use ssp_runtime::{RunMetrics, Topology};

fn topo() -> Topology {
    let mut t = Topology::new(2);
    t.connect(0, 1);
    t.connect(1, 0);
    t
}

/// The character soup JSON documents are made of.
const JSONISH: &[u8] = b"{}[]\",:0123456789eE+-.ntf\\ ";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser is a total function over arbitrary bytes.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(0u16..256, 0..512),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text); // Ok or Err — reaching here is the property.
    }

    /// JSON-shaped garbage (braces, quotes, digits, escapes) never panics
    /// and never hangs on pathological nesting.
    #[test]
    fn jsonish_garbage_never_panics(
        picks in prop::collection::vec(0usize..JSONISH.len(), 0..300),
    ) {
        let s: String = picks.into_iter().map(|i| JSONISH[i] as char).collect();
        let _ = json::parse(&s);
    }

    /// The metrics reader (GROUP_DONE payloads carry this JSON) is total
    /// over truncations and mutations of real documents.
    #[test]
    fn metrics_json_reader_is_total(
        cut_frac in 0.0f64..1.0,
        pos_frac in 0.0f64..1.0,
        byte in 0u16..256,
    ) {
        let byte = byte as u8;
        let full = RunMetrics::for_topology(&topo()).to_json();
        let cut = ((full.len() as f64) * cut_frac) as usize;
        let mut t = cut.min(full.len());
        while !full.is_char_boundary(t) { t -= 1; }
        let _ = RunMetrics::from_json(&full[..t]);
        let mut bytes = full.clone().into_bytes();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] = byte;
        let _ = RunMetrics::from_json(&String::from_utf8_lossy(&bytes));
    }
}

/// Deterministic spot-checks for the cases that have bitten JSON parsers
/// elsewhere: deep nesting (stack exhaustion) and huge scalars.
#[test]
fn deep_nesting_and_huge_scalars_are_rejected_not_fatal() {
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    assert!(json::parse(&deep).is_err(), "depth cap must reject 100k nesting");
    let huge = format!("{{\"step\":{}}}", "9".repeat(5000));
    let _ = json::parse(&huge); // numeric overflow must not panic
}
