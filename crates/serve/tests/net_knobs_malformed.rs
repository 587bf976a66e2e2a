//! Regression: malformed `VER_ADDR` / `VER_MAX_CONNS` values must warn
//! once and fall back — never panic, never take the server down. Same
//! contract as `VER_THREADS` / `VER_SIMD`.
//!
//! This lives in its own integration-test binary because the knobs
//! resolve once per process (`OnceLock`): the environment must be set
//! before the first resolution, with no other test racing it.

use ver_serve::net::{default_addr, default_max_conns, NetConfig, DEFAULT_ADDR, DEFAULT_MAX_CONNS};

#[test]
fn malformed_net_knobs_warn_and_fall_back() {
    std::env::set_var("VER_ADDR", "not-an-address:maybe");
    std::env::set_var("VER_MAX_CONNS", "lots");

    let fallback_addr: std::net::SocketAddr = DEFAULT_ADDR.parse().unwrap();
    assert_eq!(default_addr(), fallback_addr);
    assert_eq!(default_max_conns(), DEFAULT_MAX_CONNS);

    // Once resolved, the process sticks with the fallback (warn-once):
    // later reads — even after the environment is fixed — don't flip.
    std::env::set_var("VER_ADDR", "10.0.0.1:9999");
    std::env::set_var("VER_MAX_CONNS", "3");
    assert_eq!(default_addr(), fallback_addr);
    assert_eq!(default_max_conns(), DEFAULT_MAX_CONNS);

    // And the server config builder sees the same resolution.
    let config = NetConfig::default();
    assert_eq!(config.addr, fallback_addr);
    assert_eq!(config.max_conns, DEFAULT_MAX_CONNS);
}
