//! Seeded command streams with a distinct value per write, and the model
//! store every reply is checked against.
//!
//! `mini_redis::Workload` picks the keys and the GET/SET mix; its values
//! are a constant fill, so a stale read of the right size would pass a
//! size check. Every value here instead embeds a write counter and the
//! key's hash, so each SET writes bytes no earlier write produced.

use std::collections::HashMap;

use mini_redis::hash::djb2;
use mini_redis::{Command, Reply, Workload, WorkloadSpec};

/// The value written by write number `version` to `key`: version and
/// key hash in the first 16 bytes, then a version-dependent fill.
pub fn value(key: &str, version: u64, size: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(size.max(16));
    v.extend_from_slice(&version.to_le_bytes());
    v.extend_from_slice(&djb2(key).to_le_bytes());
    let seed = version as u8;
    v.extend((16..size).map(|i| seed.wrapping_add(i as u8)));
    v
}

/// Whether `bytes` is exactly the value [`value`] gives for `key`,
/// `version` and `bytes.len()`, checked without allocating.
pub fn is_value(key: &str, version: u64, bytes: &[u8]) -> bool {
    let seed = version as u8;
    bytes.len() >= 16
        && bytes[..8] == version.to_le_bytes()
        && bytes[8..16] == djb2(key).to_le_bytes()
        && bytes[16..]
            .iter()
            .zip(16..)
            .all(|(&b, i)| b == seed.wrapping_add(i as u8))
}

/// The write counter a value produced by [`value`] for `key` carries,
/// or `None` if the bytes are not such a value.
pub fn version_of(key: &str, bytes: &[u8]) -> Option<u64> {
    let version = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    is_value(key, version, bytes).then_some(version)
}

/// A deterministic command stream: the same spec (seed included) gives
/// the same commands.
pub struct Stream {
    workload: Workload,
    keyspace: usize,
    value_size: usize,
    writes: u64,
}

impl Stream {
    /// A stream over `spec`'s keys, mix and value size.
    pub fn new(spec: WorkloadSpec) -> Stream {
        Stream {
            keyspace: spec.keyspace,
            value_size: spec.value_size,
            workload: Workload::new(spec),
            writes: 0,
        }
    }

    /// One SET per key of the keyspace, so every GET has a value to read.
    pub fn preload(&mut self) -> Vec<Command> {
        (0..self.keyspace)
            .map(|i| {
                let key = format!("key:{i}");
                self.writes += 1;
                let v = value(&key, self.writes, self.value_size);
                Command::Set(key, v)
            })
            .collect()
    }

    /// The next command, with a fresh value if it is a SET.
    #[allow(clippy::should_implement_trait)] // endless generator, not an iterator
    pub fn next(&mut self) -> Command {
        match self.workload.next() {
            Command::Set(key, _) => {
                self.writes += 1;
                let v = value(&key, self.writes, self.value_size);
                Command::Set(key, v)
            }
            other => other,
        }
    }

    /// Writes issued so far, preload included (the highest version any
    /// stored value can carry).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

/// What the store must hold: the version of the last value written to
/// each key. Values are checked against their version without being
/// stored or allocated, so the model adds little to a request's time.
pub struct Model {
    versions: HashMap<String, u64>,
    value_size: usize,
}

impl Model {
    /// An empty model of `value_size`-byte values.
    pub fn new(value_size: usize) -> Model {
        Model {
            versions: HashMap::new(),
            value_size,
        }
    }

    fn record(&mut self, key: &str, version: u64) {
        match self.versions.get_mut(key) {
            Some(v) => *v = version,
            None => {
                self.versions.insert(key.to_string(), version);
            }
        }
    }

    /// Apply a command without a reply to check (preload).
    pub fn apply(&mut self, cmd: &Command) {
        if let Command::Set(k, v) = cmd {
            let version = version_of(k, v).expect("stream values carry their version");
            self.record(k, version);
        }
    }

    /// Check `reply` against the model and apply `cmd` if it is right.
    pub fn check(&mut self, cmd: &Command, reply: &Reply) -> bool {
        match (cmd, reply) {
            (Command::Get(k), Reply::Bulk(got)) => self
                .versions
                .get(k.as_str())
                .is_some_and(|&ver| got.len() == self.value_size && is_value(k, ver, got)),
            (Command::Get(k), Reply::Nil) => !self.versions.contains_key(k.as_str()),
            (Command::Set(k, v), Reply::Ok) => match version_of(k, v) {
                Some(version) => {
                    self.record(k, version);
                    true
                }
                None => false,
            },
            _ => false,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the model holds no key.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Whether `bytes` is the value the model holds for `key`.
    pub fn holds(&self, key: &str, bytes: &[u8]) -> bool {
        self.versions
            .get(key)
            .is_some_and(|&ver| bytes.len() == self.value_size && is_value(key, ver, bytes))
    }

    /// Every key with its expected value.
    pub fn entries(&self) -> impl Iterator<Item = (&str, Vec<u8>)> + '_ {
        self.versions
            .iter()
            .map(|(k, &ver)| (k.as_str(), value(k, ver, self.value_size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_distinct_per_write_and_parse_back() {
        let a = value("key:1", 7, 64);
        let b = value("key:1", 8, 64);
        assert_eq!(a.len(), 64);
        assert_ne!(a, b);
        assert_eq!(version_of("key:1", &a), Some(7));
        assert_eq!(version_of("key:2", &a), None);
        assert!(is_value("key:1", 8, &b));
        assert!(!is_value("key:1", 7, &b));
    }

    #[test]
    fn stale_read_of_the_same_size_is_caught() {
        let mut m = Model::new(64);
        let old = value("k", 1, 64);
        let new = value("k", 2, 64);
        m.apply(&Command::Set("k".into(), old.clone()));
        assert!(m.check(&Command::Set("k".into(), new.clone()), &Reply::Ok));
        assert!(!m.check(&Command::Get("k".into()), &Reply::Bulk(old)));
        assert!(m.check(&Command::Get("k".into()), &Reply::Bulk(new)));
    }
}
