//! Differential property test: striping is invisible on the wire.
//!
//! Random scripts of `set`/`add`/multi-key `get`/`delete`/`incr`/
//! `decr`/`touch`/`stats` run through [`ShardedStore`] (model and
//! engine backends, 1 and 8 shards) and through one unstriped
//! [`KvStore`] driven by [`handle_command`]; every reply must be
//! byte-identical, the merged `stats` block included. The budget is
//! ample, so no store ever evicts. `gets`/`cas` are left out: CAS
//! tokens advance per stripe, so striped tokens legitimately differ.

use bytes::BytesMut;
use densekv_kv::protocol::{parse_command, Parsed};
use densekv_kv::server::{handle_command, FixedClock};
use densekv_kv::store::{KvStore, StoreConfig};
use densekv_serve::{BackendKind, ShardedStore};

/// Ample for 16 keys of at most 600 B, even split eight ways.
const BUDGET: u64 = 64 << 20;

/// Value sizes straddling the engine's smaller page tiers.
const SIZES: [usize; 6] = [0, 1, 5, 32, 100, 600];

/// A small key pool so commands collide and interact.
fn key(idx: u8) -> String {
    format!("key{:02}", idx % 16)
}

/// One protocol command as raw bytes.
fn command(kind: u8, k: u8, size: u8, fill: u8, ttl: u8, num: u8) -> Vec<u8> {
    let name = key(k);
    let flags = u32::from(fill) % 100;
    let exptime = u64::from(ttl % 4); // 0 = immortal in the protocol
                                      // Every other stored value is a decimal number, so incr/decr hit.
    let body = if fill.is_multiple_of(2) {
        (u64::from(num) * 13).to_string().into_bytes()
    } else {
        vec![b'a' + (fill % 26); SIZES[size as usize % SIZES.len()]]
    };
    let payload = |verb: &str| {
        let mut out = format!("{verb} {name} {flags} {exptime} {}\r\n", body.len()).into_bytes();
        out.extend_from_slice(&body);
        out.extend_from_slice(b"\r\n");
        out
    };
    match kind % 10 {
        0 | 1 => payload("set"),
        2 => payload("add"),
        3 | 4 => {
            // One to four keys, duplicates allowed, usually on
            // different shards.
            let keys: Vec<String> = (0..=num % 4)
                .map(|i| key(k.wrapping_add(i.wrapping_mul(size))))
                .collect();
            format!("get {}\r\n", keys.join(" ")).into_bytes()
        }
        5 => format!("delete {name}\r\n").into_bytes(),
        6 => format!("incr {name} {}\r\n", u64::from(num) * 7).into_bytes(),
        7 => format!("decr {name} {}\r\n", u64::from(num) * 3).into_bytes(),
        8 => format!("touch {name} {exptime}\r\n").into_bytes(),
        _ => b"stats\r\n".to_vec(),
    }
}

/// One random op as drawn by the strategy below.
type Op = ((u8, u8, u8), (u8, u8, u8), u64);

/// Drives `ops` through every sharded layout and the unstriped store,
/// comparing the raw reply bytes op by op.
fn assert_striping_is_invisible(ops: &[Op]) {
    let config = StoreConfig::with_capacity(BUDGET);
    let sharded: Vec<(String, ShardedStore)> = [BackendKind::Model, BackendKind::Engine]
        .into_iter()
        .flat_map(|backend| [1, 8].map(|shards| (backend, shards)))
        .map(|(backend, shards)| {
            let label = format!("{} x{shards}", backend.as_str());
            let store = ShardedStore::new_with_backend(config.clone(), shards, backend);
            (label, store)
        })
        .collect();
    let mut single = KvStore::new(config);
    let mut now = 0u64;
    for (i, &((kind, k, size), (fill, ttl, num), dt)) in ops.iter().enumerate() {
        now += dt; // the clock only moves forward
        let clock = FixedClock(now);
        let input = command(kind, k, size, fill, ttl, num);
        let parse = || {
            let Ok(Parsed::Complete(command)) = parse_command(&mut BytesMut::from(&input[..]))
            else {
                panic!("generated command must parse: {input:?}");
            };
            command
        };
        let mut expected = BytesMut::new();
        handle_command(&mut single, parse(), &clock, &mut expected);
        for (label, store) in &sharded {
            let mut got = BytesMut::new();
            store.dispatch(parse(), &clock, &mut got);
            proptest::prop_assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&expected),
                "{} diverged from the single store at op {} ({:?})",
                label,
                i,
                String::from_utf8_lossy(&input).lines().next().unwrap_or("")
            );
        }
    }
    for (label, store) in &sharded {
        proptest::prop_assert_eq!(store.shards().len(), single.len(), "{}", label);
        proptest::prop_assert_eq!(store.shards().stats(), single.stats(), "{}", label);
    }
}

fn ops_strategy() -> impl proptest::Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            (
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
            ),
            (
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
            ),
            0u64..3,
        ),
        1..120,
    )
}

proptest::proptest! {
    /// Random scripts answer byte-identically on every sharded layout
    /// and on one unstriped store.
    #[test]
    fn sharded_replies_match_a_single_store(ops in ops_strategy()) {
        assert_striping_is_invisible(&ops);
    }
}
