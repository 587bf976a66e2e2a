//! Server configuration and its environment knobs.
//!
//! `VER_ADDR` and `VER_MAX_CONNS` follow the same warn-once-and-fall-back
//! contract as `VER_THREADS` / `VER_SIMD`: a malformed value is *never*
//! fatal — it warns on stderr once per process and the default takes
//! over. A typo'd knob must not take the server down (and, as a pure
//! resource knob, can never change results either way).

use std::net::SocketAddr;
use std::time::Duration;
use ver_common::env::EnvKnob;

/// Bind address used when neither `--addr` nor `VER_ADDR` says otherwise.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// Connection cap used when neither `--max-conns` nor `VER_MAX_CONNS`
/// says otherwise.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Parse a `VER_ADDR`-style value: a socket address like
/// `127.0.0.1:7117` or `[::1]:7117`.
pub fn parse_addr(raw: &str) -> Option<SocketAddr> {
    raw.trim().parse::<SocketAddr>().ok()
}

/// Parse a `VER_MAX_CONNS`-style value: a connection cap (`0` disables
/// the cap entirely).
pub fn parse_max_conns(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok()
}

/// Default bind address: the `VER_ADDR` environment variable, or
/// [`DEFAULT_ADDR`] when unset. Malformed values warn once and fall back.
pub fn default_addr() -> SocketAddr {
    static KNOB: EnvKnob<SocketAddr> =
        EnvKnob::new("VER_ADDR", "want host:port, e.g. 127.0.0.1:7117");
    KNOB.get(
        parse_addr,
        DEFAULT_ADDR.parse().expect("default addr parses"),
    )
}

/// Default connection cap: the `VER_MAX_CONNS` environment variable, or
/// [`DEFAULT_MAX_CONNS`] when unset. Malformed values warn once and fall
/// back; an explicit `0` disables the cap.
pub fn default_max_conns() -> usize {
    static KNOB: EnvKnob<usize> = EnvKnob::new("VER_MAX_CONNS", "want a non-negative integer");
    KNOB.get(parse_max_conns, DEFAULT_MAX_CONNS)
}

/// Tunables for one [`Server`](super::server::Server).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address. [`NetConfig::default`] resolves `VER_ADDR`.
    pub addr: SocketAddr,
    /// Concurrent-connection cap; `0` = uncapped. Connections over the
    /// cap are told `Overloaded` and closed, mirroring the engine's
    /// admission gate one layer down. Resolves `VER_MAX_CONNS`.
    pub max_conns: usize,
    /// Per-read socket timeout; a peer that stays silent longer loses
    /// its connection (`Io` on the read path).
    pub read_timeout: Duration,
    /// Per-write socket timeout; a peer that won't drain its responses
    /// (slow-loris) loses its connection.
    pub write_timeout: Duration,
    /// Page size applied when a `Query` asks for `page_size == 0`;
    /// `0` here means "whole result inline".
    pub default_page_size: u32,
    /// Open-cursor cap; the oldest cursor is evicted (FIFO) when a new
    /// paginated query would exceed it.
    pub max_cursors: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: default_addr(),
            max_conns: default_max_conns(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            default_page_size: 0,
            max_cursors: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The warn-once fallback itself is pinned by the regression tests
    // next to the other knob tests (`net_knob_*` in this crate's test
    // suite); these cover the parsers the fallback is built from.

    #[test]
    fn addr_knob_parses_socket_addresses() {
        assert_eq!(
            parse_addr("127.0.0.1:7117"),
            Some("127.0.0.1:7117".parse().unwrap())
        );
        assert_eq!(
            parse_addr("  0.0.0.0:80  "),
            Some("0.0.0.0:80".parse().unwrap())
        );
        assert_eq!(parse_addr("localhost:7117"), None); // no resolver — knob wants a literal
        assert_eq!(parse_addr("7117"), None);
        assert_eq!(parse_addr(""), None);
        assert_eq!(parse_addr("127.0.0.1:"), None);
    }

    #[test]
    fn max_conns_knob_parses_caps() {
        assert_eq!(parse_max_conns("64"), Some(64));
        assert_eq!(parse_max_conns(" 0 "), Some(0)); // 0 = uncapped, allowed
        assert_eq!(parse_max_conns("-3"), None);
        assert_eq!(parse_max_conns("many"), None);
        assert_eq!(parse_max_conns(""), None);
    }

    #[test]
    fn default_config_is_sane() {
        let c = NetConfig::default();
        assert!(c.read_timeout > Duration::ZERO);
        assert!(c.write_timeout > Duration::ZERO);
        assert!(c.max_cursors > 0);
    }
}
