//! The Memcached text protocol (the subset the paper's workloads use:
//! `get`, `gets`, `set`, `delete`, `touch`, `flush_all`, `stats`, plus
//! `version` and `quit`).
//!
//! Parsing is incremental over a [`bytes::BytesMut`]: a parse call either
//! yields a complete command (consuming its bytes), reports that more
//! bytes are needed, or fails with a protocol error — exactly the contract
//! a byte-stream server loop needs.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::store::{GetHit, StoreError};

/// Maximum accepted command-line length (Memcached rejects longer).
pub const MAX_LINE_BYTES: usize = 2048;

/// Largest data block a storage command may carry (Memcached's default
/// 1 MB item limit). Together with [`MAX_LINE_BYTES`] this bounds how
/// much a server must buffer per connection, no matter what a remote
/// peer sends.
pub const MAX_VALUE_BYTES: u64 = 1 << 20;

/// Which storage semantics a data-block command carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store only if absent.
    Add,
    /// Store only if present.
    Replace,
    /// Append to an existing value.
    Append,
    /// Prepend to an existing value.
    Prepend,
    /// Compare-and-swap against a token.
    Cas,
}

/// The keys of a `get`/`gets` line: the raw key text, split on demand.
///
/// The whole key text is one allocation; iterating borrows each key
/// out of it, so a 24-key multiget parses without 24 key copies. Keys
/// are separated by runs of spaces, exactly as the rest of the command
/// line is tokenized.
///
/// # Examples
///
/// ```
/// use densekv_kv::protocol::KeyList;
///
/// let keys = KeyList::new(b"  a bb  ccc ").expect("holds keys");
/// assert_eq!(keys.iter().collect::<Vec<_>>(), [&b"a"[..], b"bb", b"ccc"]);
/// assert!(KeyList::new(b"   ").is_none());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct KeyList {
    /// From the first key's first byte to the last key's last byte.
    text: Bytes,
}

impl KeyList {
    /// Copies space-separated key text; `None` when it holds no key.
    #[must_use]
    pub fn new(text: &[u8]) -> Option<Self> {
        let start = text.iter().position(|&b| b != b' ')?;
        let end = text.iter().rposition(|&b| b != b' ')? + 1;
        Some(KeyList {
            text: Bytes::copy_from_slice(&text[start..end]),
        })
    }

    /// The keys, in request order.
    pub fn iter(&self) -> Keys<'_> {
        Keys { rest: &self.text }
    }
}

impl<'a> IntoIterator for &'a KeyList {
    type Item = &'a [u8];
    type IntoIter = Keys<'a>;

    fn into_iter(self) -> Keys<'a> {
        self.iter()
    }
}

impl core::fmt::Debug for KeyList {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|key| key.escape_ascii().to_string()))
            .finish()
    }
}

/// Iterator over space-separated tokens: the keys of a [`KeyList`], and
/// the words of every command line.
#[derive(Debug, Clone)]
pub struct Keys<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Keys<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.rest.iter().position(|&b| b != b' ')?;
        let rest = &self.rest[start..];
        let end = rest.iter().position(|&b| b == b' ').unwrap_or(rest.len());
        let (token, tail) = rest.split_at(end);
        self.rest = tail;
        Some(token)
    }
}

/// A parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `get <key>+` — fetch one or more keys.
    Get {
        /// Keys requested.
        keys: KeyList,
        /// Whether CAS tokens were requested (`gets`).
        with_cas: bool,
    },
    /// `set|add|replace|append|prepend|cas <key> <flags> <exptime>
    /// <bytes> [cas] [noreply]` + data block.
    Set {
        /// Storage semantics.
        verb: StoreVerb,
        /// Item key.
        key: Bytes,
        /// Client-opaque flags.
        flags: u32,
        /// Expiry in seconds (0 = immortal).
        exptime: u64,
        /// Value bytes.
        data: Bytes,
        /// CAS token (only for `cas`).
        cas: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `incr <key> <delta> [noreply]` / `decr …`.
    IncrDecr {
        /// Item key.
        key: Bytes,
        /// Unsigned delta.
        delta: u64,
        /// True for `decr`.
        decrement: bool,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `delete <key> [noreply]`.
    Delete {
        /// Item key.
        key: Bytes,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `touch <key> <exptime> [noreply]`.
    Touch {
        /// Item key.
        key: Bytes,
        /// New expiry in seconds.
        exptime: u64,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `flush_all`.
    FlushAll,
    /// `stats [<sub>]` — plain `stats` carries no argument; extended
    /// introspection (`stats latency`, `stats shards`, `stats reset`)
    /// carries the sub-command verbatim for the serving layer to route.
    Stats {
        /// The sub-command after `stats`, if any.
        arg: Option<Bytes>,
    },
    /// `metrics` — Prometheus text exposition of every live metric
    /// (a densekv extension; not part of the Memcached protocol).
    Metrics,
    /// `version`.
    Version,
    /// `quit`.
    Quit,
}

/// Protocol-level parse errors (the server answers `CLIENT_ERROR`/`ERROR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Unknown verb.
    UnknownCommand(String),
    /// Malformed arguments for a known verb.
    BadArguments(&'static str),
    /// Command line exceeded [`MAX_LINE_BYTES`].
    LineTooLong,
    /// Data block wasn't terminated with CRLF.
    BadDataChunk,
    /// Announced data block exceeds [`MAX_VALUE_BYTES`].
    ValueTooLarge,
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::UnknownCommand(verb) => write!(f, "unknown command {verb:?}"),
            ProtocolError::BadArguments(what) => write!(f, "bad arguments: {what}"),
            ProtocolError::LineTooLong => write!(f, "command line too long"),
            ProtocolError::BadDataChunk => write!(f, "bad data chunk"),
            ProtocolError::ValueTooLarge => write!(f, "object too large for cache"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Incremental parse outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A complete command was consumed from the buffer.
    Complete(Command),
    /// The buffer does not yet hold a complete command; read more bytes.
    Incomplete,
}

/// Tries to parse one command from the front of `buf`.
///
/// On [`Parsed::Complete`] the command's bytes (including its data block,
/// for `set`) have been consumed. On [`Parsed::Incomplete`] the buffer is
/// untouched.
///
/// # Errors
///
/// Returns a [`ProtocolError`] for malformed input; the caller should
/// answer with [`render_error`] and close or resynchronize.
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use densekv_kv::protocol::{parse_command, Command, Parsed};
///
/// let mut buf = BytesMut::from(&b"get user:42\r\n"[..]);
/// match parse_command(&mut buf)? {
///     Parsed::Complete(Command::Get { keys, .. }) => {
///         assert_eq!(keys.iter().collect::<Vec<_>>(), [b"user:42"]);
///     }
///     other => panic!("unexpected: {other:?}"),
/// }
/// # Ok::<(), densekv_kv::protocol::ProtocolError>(())
/// ```
pub fn parse_command(buf: &mut BytesMut) -> Result<Parsed, ProtocolError> {
    let Some(line_end) = find_crlf(buf) else {
        if buf.len() > MAX_LINE_BYTES {
            return Err(ProtocolError::LineTooLong);
        }
        return Ok(Parsed::Incomplete);
    };
    if line_end > MAX_LINE_BYTES {
        return Err(ProtocolError::LineTooLong);
    }

    // Peek the line without consuming: `set` needs the data block too.
    // Tokens borrow the buffer; each arm copies what it keeps before
    // advancing past the line.
    let mut parts = Keys {
        rest: &buf[..line_end],
    };
    let verb = parts.next().unwrap_or(b"");

    match verb {
        b"get" | b"gets" => {
            let keys = KeyList::new(parts.rest)
                .ok_or(ProtocolError::BadArguments("get needs at least one key"))?;
            let with_cas = verb == b"gets";
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(Command::Get { keys, with_cas }))
        }
        b"set" | b"add" | b"replace" | b"append" | b"prepend" | b"cas" => {
            let store_verb = match verb {
                b"set" => StoreVerb::Set,
                b"add" => StoreVerb::Add,
                b"replace" => StoreVerb::Replace,
                b"append" => StoreVerb::Append,
                b"prepend" => StoreVerb::Prepend,
                _ => StoreVerb::Cas,
            };
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("storage command needs a key"))?;
            let flags = parse_u64(parts.next(), "flags")? as u32;
            let exptime = parse_u64(parts.next(), "exptime")?;
            let nbytes = parse_u64(parts.next(), "bytes")?;
            // Memcached rejects oversized items up front; the bound also
            // keeps the length arithmetic below overflow-safe and caps
            // how far a server buffer can grow waiting for the block.
            if nbytes > MAX_VALUE_BYTES {
                return Err(ProtocolError::ValueTooLarge);
            }
            let nbytes = nbytes as usize;
            let cas = if store_verb == StoreVerb::Cas {
                parse_u64(parts.next(), "cas token")?
            } else {
                0
            };
            let noreply = matches!(parts.next(), Some(b"noreply"));
            let data_start = line_end + 2;
            let needed = data_start + nbytes + 2;
            if buf.len() < needed {
                return Ok(Parsed::Incomplete);
            }
            if &buf[data_start + nbytes..needed] != b"\r\n" {
                return Err(ProtocolError::BadDataChunk);
            }
            let key = Bytes::copy_from_slice(key);
            buf.advance(data_start);
            let data = buf.split_to(nbytes).freeze();
            buf.advance(2);
            Ok(Parsed::Complete(Command::Set {
                verb: store_verb,
                key,
                flags,
                exptime,
                data,
                cas,
                noreply,
            }))
        }
        b"incr" | b"decr" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("incr/decr needs a key"))?;
            let delta = parse_u64(parts.next(), "delta")?;
            let noreply = matches!(parts.next(), Some(b"noreply"));
            let cmd = Command::IncrDecr {
                key: Bytes::copy_from_slice(key),
                delta,
                decrement: verb == b"decr",
                noreply,
            };
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(cmd))
        }
        b"delete" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("delete needs a key"))?;
            let noreply = matches!(parts.next(), Some(b"noreply"));
            let cmd = Command::Delete {
                key: Bytes::copy_from_slice(key),
                noreply,
            };
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(cmd))
        }
        b"touch" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("touch needs a key"))?;
            let exptime = parse_u64(parts.next(), "exptime")?;
            let noreply = matches!(parts.next(), Some(b"noreply"));
            let cmd = Command::Touch {
                key: Bytes::copy_from_slice(key),
                exptime,
                noreply,
            };
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(cmd))
        }
        b"flush_all" => {
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(Command::FlushAll))
        }
        b"stats" => {
            let arg = parts.next().map(Bytes::copy_from_slice);
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(Command::Stats { arg }))
        }
        b"metrics" => {
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(Command::Metrics))
        }
        b"version" => {
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(Command::Version))
        }
        b"quit" => {
            buf.advance(line_end + 2);
            Ok(Parsed::Complete(Command::Quit))
        }
        other => Err(ProtocolError::UnknownCommand(
            String::from_utf8_lossy(other).into_owned(),
        )),
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn parse_u64(token: Option<&[u8]>, what: &'static str) -> Result<u64, ProtocolError> {
    let token = token.ok_or(ProtocolError::BadArguments(what))?;
    std::str::from_utf8(token)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtocolError::BadArguments(what))
}

/// Renders a `VALUE` block for one GET hit: the header, then the value
/// copied once, straight from the store into `out`.
pub fn render_value(out: &mut BytesMut, key: &[u8], hit: &GetHit<'_>, with_cas: bool) {
    let value = hit.value();
    // "VALUE " + key + three space-led decimals (at most 20 digits
    // each) + the two CRLFs.
    out.reserve(6 + key.len() + 3 * 21 + value.len() + 4);
    out.put_slice(b"VALUE ");
    out.put_slice(key);
    out.put_u8(b' ');
    put_decimal(out, u64::from(hit.flags()));
    out.put_u8(b' ');
    put_decimal(out, value.len() as u64);
    if with_cas {
        out.put_u8(b' ');
        put_decimal(out, hit.cas());
    }
    out.put_slice(b"\r\n");
    out.put_slice(value);
    out.put_slice(b"\r\n");
}

/// Appends `n` in decimal, without going through `format!`.
fn put_decimal(out: &mut BytesMut, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put_slice(&digits[at..]);
}

/// Terminates a GET response.
pub fn render_end(out: &mut BytesMut) {
    out.put_slice(b"END\r\n");
}

/// Renders the reply to a storage command.
pub fn render_stored(out: &mut BytesMut) {
    out.put_slice(b"STORED\r\n");
}

/// Renders the reply to a delete.
pub fn render_deleted(out: &mut BytesMut, existed: bool) {
    out.put_slice(if existed {
        b"DELETED\r\n".as_slice()
    } else {
        b"NOT_FOUND\r\n".as_slice()
    });
}

/// Renders a store-side failure.
pub fn render_store_error(out: &mut BytesMut, err: &StoreError) {
    match err {
        StoreError::OutOfMemory => out.put_slice(b"SERVER_ERROR out of memory storing object\r\n"),
        // Same wording as the parse-time nbytes cap: one item-size
        // policy, one client-visible error, whichever layer catches it.
        StoreError::ValueTooLarge { .. } => {
            out.put_slice(b"SERVER_ERROR object too large for cache\r\n")
        }
        StoreError::CasMismatch => out.put_slice(b"EXISTS\r\n"),
        StoreError::NotFound => out.put_slice(b"NOT_FOUND\r\n"),
        StoreError::Exists => out.put_slice(b"NOT_STORED\r\n"),
        StoreError::NotNumeric => {
            out.put_slice(b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
        }
        other => {
            out.put_slice(b"CLIENT_ERROR ");
            out.put_slice(other.to_string().as_bytes());
            out.put_slice(b"\r\n");
        }
    }
}

/// Renders an `incr`/`decr` result.
pub fn render_number(out: &mut BytesMut, value: u64) {
    put_decimal(out, value);
    out.put_slice(b"\r\n");
}

/// Renders a protocol-level failure.
pub fn render_error(out: &mut BytesMut, err: &ProtocolError) {
    match err {
        ProtocolError::UnknownCommand(_) => out.put_slice(b"ERROR\r\n"),
        ProtocolError::ValueTooLarge => {
            // Memcached's wording for its item-size cap.
            out.put_slice(b"SERVER_ERROR object too large for cache\r\n");
        }
        other => {
            out.put_slice(b"CLIENT_ERROR ");
            out.put_slice(other.to_string().as_bytes());
            out.put_slice(b"\r\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KvStore, StoreConfig, MAX_KEY_BYTES};

    fn parse_one(input: &[u8]) -> Result<Parsed, ProtocolError> {
        let mut buf = BytesMut::from(input);
        parse_command(&mut buf)
    }

    #[test]
    fn get_single_and_multi() {
        match parse_one(b"get a\r\n").unwrap() {
            Parsed::Complete(Command::Get { keys, with_cas }) => {
                assert_eq!(keys.iter().count(), 1);
                assert!(!with_cas);
            }
            other => panic!("{other:?}"),
        }
        match parse_one(b"gets a bb ccc\r\n").unwrap() {
            Parsed::Complete(Command::Get { keys, with_cas }) => {
                let keys: Vec<&[u8]> = keys.iter().collect();
                assert_eq!(keys, [&b"a"[..], b"bb", b"ccc"]);
                assert!(with_cas);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_with_data_block() {
        let mut buf = BytesMut::from(&b"set k 7 60 5\r\nhello\r\nget k\r\n"[..]);
        match parse_command(&mut buf).unwrap() {
            Parsed::Complete(Command::Set {
                verb,
                key,
                flags,
                exptime,
                data,
                cas,
                noreply,
            }) => {
                assert_eq!(verb, StoreVerb::Set);
                assert_eq!(&key[..], b"k");
                assert_eq!(flags, 7);
                assert_eq!(exptime, 60);
                assert_eq!(&data[..], b"hello");
                assert_eq!(cas, 0);
                assert!(!noreply);
            }
            other => panic!("{other:?}"),
        }
        // The following command is still in the buffer.
        assert!(matches!(
            parse_command(&mut buf).unwrap(),
            Parsed::Complete(Command::Get { .. })
        ));
    }

    #[test]
    fn set_noreply_flag() {
        match parse_one(b"set k 0 0 2 noreply\r\nhi\r\n").unwrap() {
            Parsed::Complete(Command::Set { noreply, .. }) => assert!(noreply),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomplete_inputs_wait_for_more() {
        assert_eq!(parse_one(b"get a").unwrap(), Parsed::Incomplete);
        assert_eq!(
            parse_one(b"set k 0 0 10\r\nhalf").unwrap(),
            Parsed::Incomplete
        );
        // Incomplete parse leaves the buffer intact.
        let mut buf = BytesMut::from(&b"set k 0 0 4\r\nab"[..]);
        let before = buf.clone();
        assert_eq!(parse_command(&mut buf).unwrap(), Parsed::Incomplete);
        assert_eq!(buf, before);
    }

    #[test]
    fn value_data_may_contain_spaces_and_binary() {
        match parse_one(b"set k 0 0 6\r\na b\r\nc\r\n").unwrap() {
            Parsed::Complete(Command::Set { data, .. }) => assert_eq!(&data[..], b"a b\r\nc"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse_one(b"frobnicate\r\n"),
            Err(ProtocolError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse_one(b"set k 0 0 notanumber\r\n"),
            Err(ProtocolError::BadArguments(_))
        ));
        assert!(matches!(
            parse_one(b"set k 0 0 3\r\nabcX\r"),
            Err(ProtocolError::BadDataChunk) | Ok(Parsed::Incomplete)
        ));
        assert!(matches!(
            parse_one(b"get\r\n"),
            Err(ProtocolError::BadArguments(_))
        ));
    }

    #[test]
    fn misc_verbs() {
        assert!(matches!(
            parse_one(b"flush_all\r\n").unwrap(),
            Parsed::Complete(Command::FlushAll)
        ));
        assert!(matches!(
            parse_one(b"stats\r\n").unwrap(),
            Parsed::Complete(Command::Stats { arg: None })
        ));
        match parse_one(b"stats latency\r\n").unwrap() {
            Parsed::Complete(Command::Stats { arg: Some(arg) }) => {
                assert_eq!(&arg[..], b"latency");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_one(b"metrics\r\n").unwrap(),
            Parsed::Complete(Command::Metrics)
        ));
        assert!(matches!(
            parse_one(b"version\r\n").unwrap(),
            Parsed::Complete(Command::Version)
        ));
        assert!(matches!(
            parse_one(b"quit\r\n").unwrap(),
            Parsed::Complete(Command::Quit)
        ));
        assert!(matches!(
            parse_one(b"touch k 30\r\n").unwrap(),
            Parsed::Complete(Command::Touch { exptime: 30, .. })
        ));
    }

    #[test]
    fn render_roundtrip_through_store() {
        let mut store = KvStore::new(StoreConfig::with_capacity(4 << 20));
        store
            .set_with_flags(b"k", b"world".to_vec(), 9, None, 0)
            .unwrap();
        let hit = store.get(b"k", 0).unwrap();
        let mut out = BytesMut::new();
        render_value(&mut out, b"k", &hit, false);
        render_end(&mut out);
        assert_eq!(&out[..], b"VALUE k 9 5\r\nworld\r\nEND\r\n");
        let mut out = BytesMut::new();
        render_value(&mut out, b"k", &hit, true);
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.starts_with("VALUE k 9 5 "), "{text}");
    }

    #[test]
    fn render_misc() {
        let mut out = BytesMut::new();
        render_stored(&mut out);
        render_deleted(&mut out, true);
        render_deleted(&mut out, false);
        render_store_error(&mut out, &StoreError::OutOfMemory);
        render_error(&mut out, &ProtocolError::UnknownCommand("x".into()));
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.contains("STORED"));
        assert!(text.contains("DELETED"));
        assert!(text.contains("NOT_FOUND"));
        assert!(text.contains("SERVER_ERROR"));
        assert!(text.ends_with("ERROR\r\n"));
    }

    #[test]
    fn storage_verb_family() {
        for (text, verb) in [
            (&b"add k 0 0 2\r\nhi\r\n"[..], StoreVerb::Add),
            (b"replace k 0 0 2\r\nhi\r\n", StoreVerb::Replace),
            (b"append k 0 0 2\r\nhi\r\n", StoreVerb::Append),
            (b"prepend k 0 0 2\r\nhi\r\n", StoreVerb::Prepend),
        ] {
            match parse_one(text).unwrap() {
                Parsed::Complete(Command::Set { verb: v, data, .. }) => {
                    assert_eq!(v, verb);
                    assert_eq!(&data[..], b"hi");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn cas_carries_token() {
        match parse_one(b"cas k 1 0 2 99\r\nhi\r\n").unwrap() {
            Parsed::Complete(Command::Set {
                verb, cas, noreply, ..
            }) => {
                assert_eq!(verb, StoreVerb::Cas);
                assert_eq!(cas, 99);
                assert!(!noreply);
            }
            other => panic!("{other:?}"),
        }
        match parse_one(b"cas k 1 0 2 99 noreply\r\nhi\r\n").unwrap() {
            Parsed::Complete(Command::Set { noreply, .. }) => assert!(noreply),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incr_decr_parse() {
        match parse_one(b"incr counter 5\r\n").unwrap() {
            Parsed::Complete(Command::IncrDecr {
                delta, decrement, ..
            }) => {
                assert_eq!(delta, 5);
                assert!(!decrement);
            }
            other => panic!("{other:?}"),
        }
        match parse_one(b"decr counter 3\r\n").unwrap() {
            Parsed::Complete(Command::IncrDecr { decrement, .. }) => assert!(decrement),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_one(b"incr counter notanumber\r\n"),
            Err(ProtocolError::BadArguments(_))
        ));
    }

    #[test]
    fn oversized_value_announcement_is_rejected_cleanly() {
        // One byte over the cap: rejected before any data is buffered.
        let over = MAX_VALUE_BYTES + 1;
        assert_eq!(
            parse_one(format!("set k 0 0 {over}\r\n").as_bytes()),
            Err(ProtocolError::ValueTooLarge)
        );
        // Exactly at the cap the parser waits for the block instead.
        let at = MAX_VALUE_BYTES;
        assert_eq!(
            parse_one(format!("set k 0 0 {at}\r\n").as_bytes()).unwrap(),
            Parsed::Incomplete
        );
        // The rejection renders as Memcached's SERVER_ERROR, not a panic.
        let mut out = BytesMut::new();
        render_error(&mut out, &ProtocolError::ValueTooLarge);
        assert_eq!(&out[..], b"SERVER_ERROR object too large for cache\r\n");
    }

    #[test]
    fn unterminated_garbage_is_bounded_by_line_limit() {
        // No CRLF ever arrives: the parser must flag the line instead of
        // buffering without bound.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 1]);
        assert_eq!(parse_command(&mut buf), Err(ProtocolError::LineTooLong));
    }

    /// One pseudo-protocol fragment for the chunked fuzz test: a mix of
    /// well-formed commands, truncated commands, raw bytes, and framing
    /// noise.
    fn fragment() -> impl proptest::Strategy<Value = Vec<u8>> {
        use proptest::Strategy as _;
        (0u8..10, proptest::any::<u8>(), 0usize..12).prop_map(|(kind, byte, n)| match kind {
            0 => b"get k\r\n".to_vec(),
            1 => format!("set k 0 0 {n}\r\n").into_bytes(),
            2 => vec![byte; n],
            3 => b"\r\n".to_vec(),
            4 => b"set k 0 0 184467440737095516\r\n".to_vec(),
            5 => format!("incr k {}\r\n", u64::from(byte) * 7).into_bytes(),
            6 => b"gets a b c\r\n".to_vec(),
            7 => vec![b' '; n],
            8 => b"cas k 1 0 2 99\r\nhi\r\n".to_vec(),
            _ => b"delete \x00\xff\r\n".to_vec(),
        })
    }

    proptest::proptest! {
        /// Adversarial bytes from a real socket: random fragments fed at
        /// random split points never panic the parser, and every call
        /// makes progress — a complete command consumes bytes, an
        /// incomplete parse leaves the buffer untouched, and an error
        /// lets the caller resynchronize or close.
        #[test]
        fn parser_survives_random_chunked_bytes(
            fragments in proptest::collection::vec(fragment(), 1..32),
            splits in proptest::collection::vec(1usize..17, 1..32)
        ) {
            let stream: Vec<u8> = fragments.concat();
            let mut buf = BytesMut::new();
            let mut fed = 0usize;
            let mut split = splits.iter().cycle();
            while fed < stream.len() {
                let take = (*split.next().unwrap()).min(stream.len() - fed);
                buf.extend_from_slice(&stream[fed..fed + take]);
                fed += take;
                loop {
                    let before = buf.len();
                    match parse_command(&mut buf) {
                        Ok(Parsed::Complete(_)) => {
                            proptest::prop_assert!(
                                buf.len() < before,
                                "complete command must consume bytes"
                            );
                        }
                        Ok(Parsed::Incomplete) => {
                            proptest::prop_assert_eq!(
                                buf.len(),
                                before,
                                "incomplete parse must leave the buffer intact"
                            );
                            break;
                        }
                        Err(_) => {
                            // A server answers the error, then skips the
                            // offending line or closes; either way the
                            // buffer shrinks and the loop terminates.
                            match buf.windows(2).position(|w| w == b"\r\n") {
                                Some(pos) => Buf::advance(&mut buf, pos + 2),
                                None => buf.clear(),
                            }
                        }
                    }
                }
                // At most one incomplete command is ever buffered, so the
                // buffer stays bounded by a command line plus the largest
                // admissible data block.
                proptest::prop_assert!(
                    buf.len() <= MAX_LINE_BYTES + MAX_VALUE_BYTES as usize + 2 + 16
                );
            }
        }
    }

    /// A `get` parse outcome: the keys and `gets`-ness of a complete
    /// line, `None` for an incomplete one, or the error.
    type GetParse = Result<Option<(Vec<Vec<u8>>, bool)>, ProtocolError>;

    /// The `get` tokenizer `parse_command` used before [`KeyList`]: copy
    /// the line, split it on single spaces, drop the empty tokens and
    /// copy every key. Returns the outcome and the bytes consumed.
    fn seed_parse_get(buf: &[u8]) -> (GetParse, usize) {
        let Some(line_end) = buf.windows(2).position(|w| w == b"\r\n") else {
            if buf.len() > MAX_LINE_BYTES {
                return (Err(ProtocolError::LineTooLong), 0);
            }
            return (Ok(None), 0);
        };
        if line_end > MAX_LINE_BYTES {
            return (Err(ProtocolError::LineTooLong), 0);
        }
        let line: Vec<u8> = buf[..line_end].to_vec();
        let mut parts = line.split(|&b| b == b' ').filter(|token| !token.is_empty());
        let verb = parts.next().unwrap_or(b"");
        match verb {
            b"get" | b"gets" => {
                let keys: Vec<Vec<u8>> = parts.map(<[u8]>::to_vec).collect();
                if keys.is_empty() {
                    return (
                        Err(ProtocolError::BadArguments("get needs at least one key")),
                        0,
                    );
                }
                (Ok(Some((keys, verb == b"gets"))), line_end + 2)
            }
            other => (
                Err(ProtocolError::UnknownCommand(
                    String::from_utf8_lossy(other).into_owned(),
                )),
                0,
            ),
        }
    }

    /// One `get`/`gets` input for the tokenizer equivalence test, from
    /// `(verb, leading spaces, keys, separator widths, trailing spaces,
    /// ending)`: key lengths include 0 (a spaces-only key list) and
    /// `MAX_KEY_BYTES`; endings pad the line to one byte under, at, and
    /// over `MAX_LINE_BYTES`, drop the CRLF, or append a second command.
    fn get_line() -> impl proptest::Strategy<Value = Vec<u8>> {
        use proptest::Strategy as _;
        let key = (0u8..8, proptest::any::<u8>()).prop_map(|(size, byte)| {
            let len = match size {
                0 => MAX_KEY_BYTES,
                1 => MAX_KEY_BYTES - 1,
                2 => 0,
                n => usize::from(n),
            };
            let c = b"abcxyz019:_-.\x00\xff"[usize::from(byte) % 15];
            vec![c; len]
        });
        (
            0u8..4,
            0u8..3,
            proptest::collection::vec(key, 0..12),
            proptest::collection::vec(1u8..4, 12),
            (0u8..3, 0u8..7),
        )
            .prop_map(|(verb, lead, keys, gaps, (trail, ending))| {
                let mut line = vec![b' '; usize::from(lead)];
                line.extend_from_slice(match verb {
                    0 | 1 => &b"get"[..],
                    2 => b"gets",
                    _ => b"get\rx",
                });
                for (key, gap) in keys.iter().zip(&gaps) {
                    line.extend(std::iter::repeat_n(b' ', usize::from(*gap)));
                    line.extend_from_slice(key);
                }
                line.extend(std::iter::repeat_n(b' ', usize::from(trail)));
                match ending {
                    0..=2 => {
                        // Pad with spaces or one long key to MAX_LINE_BYTES - 1,
                        // MAX_LINE_BYTES or MAX_LINE_BYTES + 1.
                        let target = MAX_LINE_BYTES + usize::from(ending) - 1;
                        if line.len() < target {
                            let pad = if trail == 0 { b'k' } else { b' ' };
                            line.push(b' ');
                            line.resize(target, pad);
                        }
                        line.extend_from_slice(b"\r\n");
                    }
                    3 => {}
                    4 => line.extend_from_slice(b"\r\nget next\r\n"),
                    _ => line.extend_from_slice(b"\r\n"),
                }
                line
            })
    }

    /// Parses `input` both ways: same keys or error, same bytes consumed.
    fn assert_parses_like_the_seed(input: &[u8]) {
        let (expected, consumed) = seed_parse_get(input);
        let mut buf = BytesMut::from(input);
        let got = parse_command(&mut buf).map(|parsed| match parsed {
            Parsed::Complete(Command::Get { keys, with_cas }) => Some((
                keys.iter().map(<[u8]>::to_vec).collect::<Vec<_>>(),
                with_cas,
            )),
            Parsed::Complete(other) => panic!("not a get: {other:?}"),
            Parsed::Incomplete => None,
        });
        let shown = input.escape_ascii().to_string();
        assert_eq!(got, expected, "{shown}");
        assert_eq!(input.len() - buf.len(), consumed, "{shown}");
    }

    proptest::proptest! {
        /// The `KeyList` fast path yields the seed tokenizer's keys and
        /// errors, and consumes the same bytes.
        #[test]
        fn key_list_parse_matches_the_seed_tokenizer(input in get_line()) {
            assert_parses_like_the_seed(&input);
        }
    }

    #[test]
    fn key_list_edge_cases_match_the_seed_tokenizer() {
        for input in [
            &b"get\r\n"[..],
            b"gets\r\n",
            b"get    \r\n",
            b"   get a\r\n",
            b"get a   \r\n",
            b"gets  a  b\r\n",
            b"get\ta\r\n",
            b"getsa b\r\n",
        ] {
            assert_parses_like_the_seed(input);
        }
    }

    #[test]
    fn render_value_is_byte_identical_to_format() {
        let max = vec![b'v'; MAX_VALUE_BYTES as usize];
        for flags in [0, 1, u32::MAX] {
            for value in [&b""[..], b"x", &max] {
                for cas in [0, 1, u64::MAX] {
                    for with_cas in [false, true] {
                        let hit = GetHit::new(value, flags, cas);
                        // Append after earlier replies, as a pipelined
                        // connection does.
                        let mut out = BytesMut::from(&b"END\r\n"[..]);
                        render_value(&mut out, b"key:1", &hit, with_cas);
                        let mut expected = b"END\r\nVALUE key:1".to_vec();
                        if with_cas {
                            expected.extend_from_slice(
                                format!(" {} {} {}\r\n", flags, value.len(), cas).as_bytes(),
                            );
                        } else {
                            expected.extend_from_slice(
                                format!(" {} {}\r\n", flags, value.len()).as_bytes(),
                            );
                        }
                        expected.extend_from_slice(value);
                        expected.extend_from_slice(b"\r\n");
                        assert!(
                            out[..] == expected[..],
                            "flags {flags} len {} cas {cas} with_cas {with_cas}",
                            value.len()
                        );
                    }
                }
            }
        }
        for n in [0, 9, 10, u64::from(u32::MAX), u64::MAX] {
            let mut out = BytesMut::new();
            render_number(&mut out, n);
            assert_eq!(&out[..], format!("{n}\r\n").as_bytes());
        }
    }

    #[test]
    fn render_number_and_new_errors() {
        let mut out = BytesMut::new();
        render_number(&mut out, 16);
        render_store_error(&mut out, &StoreError::Exists);
        render_store_error(&mut out, &StoreError::NotNumeric);
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.starts_with("16\r\n"));
        assert!(text.contains("NOT_STORED"));
        assert!(text.contains("non-numeric"));
    }
}
