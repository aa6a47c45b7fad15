//! Minimal-repro serialization: [`ScenarioConfig`] ⇄ JSON.
//!
//! A repro file is one JSON object carrying the *entire* scenario — not
//! just the fault schedule — so replaying it later needs no out-of-band
//! profile and survives changes to the search harness's defaults. Field
//! order is fixed and numbers use Rust's shortest round-trip formatting,
//! so serializing the same config always yields the same bytes and a
//! parse → serialize cycle is the identity on those bytes.
//!
//! Durations and instants are written in integer microseconds (the sim
//! clock's native unit); enums are tagged objects `{"t": "...", ...}`.
//!
//! Each record below is described once and the description serves both
//! directions: a `record!` line is a struct field and the key it is stored
//! under, a `tagged!` row is an enum variant, its tag and its payload keys.
//! The byte format itself belongs to [`aqf_obs::json`].

use aqf_core::{OrderingGuarantee, QosSpec, RecoveryPolicy, SelectionPolicy, StorageConfig};
use aqf_obs::{parse_json, write_object, Fields, ObjWriter};
use aqf_sim::{SimDuration, SimTime};

use crate::config::{
    ClientSpec, FaultEvent, FaultKind, FaultTarget, ObjectKind, OpPattern, ScenarioConfig,
};

/// Serializes `config` as a single deterministic JSON object.
pub fn config_to_json(config: &ScenarioConfig) -> String {
    let mut s = String::with_capacity(2048);
    write_object(&mut s, |o| config.write(o));
    s
}

/// Parses a scenario previously produced by [`config_to_json`]. Repro
/// files are outside input: every field is type- and range-checked, a key
/// the format does not know is rejected, and the error names the
/// offending key.
pub fn config_from_json(text: &str) -> Result<ScenarioConfig, String> {
    let doc = parse_json(text)?;
    ScenarioConfig::read(Fields::of(&doc).map_err(|e| format!("repro root is {e}"))?)
}

/// The key a tagged enum stores its variant tag under.
const TAG: &str = "t";

/// Rejects any key of `f` outside `keys`: a misspelt or retired key would
/// otherwise replay another scenario without a word.
fn only(f: Fields<'_>, keys: &[&str]) -> Result<(), String> {
    match f.0.keys().find(|k| !keys.contains(&k.as_str())) {
        Some(k) => Err(format!("unknown field {k:?}")),
        None => Ok(()),
    }
}

/// A value stored under a key of its parent object.
trait Field: Sized {
    fn put(&self, key: &str, o: &mut ObjWriter<'_>);
    fn get(f: Fields<'_>, key: &str) -> Result<Self, String>;
}

/// A value that is one JSON object's worth of fields.
trait Record: Sized {
    fn write(&self, o: &mut ObjWriter<'_>);
    fn read(f: Fields<'_>) -> Result<Self, String>;
}

impl<T: Record> Field for T {
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.obj(key, |o| self.write(o));
    }
    fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
        T::read(f.obj(key)?)
    }
}

impl<T: Record> Field for Vec<T> {
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.objs(key, self, T::write);
    }
    fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
        f.arr(key)?
            .iter()
            .map(|v| T::read(Fields::of(v).map_err(|e| format!("field {key:?}: item is {e}"))?))
            .collect()
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        match self {
            Some(v) => v.put(key, o),
            None => o.null(key),
        }
    }
    fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
        if f.is_null(key)? {
            Ok(None)
        } else {
            T::get(f, key).map(Some)
        }
    }
}

macro_rules! uint_fields {
    ($($T:ty),*) => { $(
        impl Field for $T {
            fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
                o.u64(key, *self as u64);
            }
            fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
                f.uint(key)
            }
        }
    )* };
}
uint_fields!(u64, u32, usize);

/// Durations and instants are integer microseconds, the sim clock's unit.
macro_rules! micros_fields {
    ($($T:ident),*) => { $(
        impl Field for $T {
            fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
                o.u64(key, self.as_micros());
            }
            fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
                f.uint(key).map($T::from_micros)
            }
        }
    )* };
}
micros_fields!(SimDuration, SimTime);

impl Field for f64 {
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.f64(key, *self);
    }
    fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
        f.f64(key)
    }
}

impl Field for bool {
    fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
        o.bool(key, *self);
    }
    fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
        f.bool(key)
    }
}

/// Describes a struct-shaped record, one line per field, in file order:
/// `field` is stored under its own name, `field: "key"` under `key`. The
/// field's type picks its [`Field`] encoding.
macro_rules! record {
    ($T:ty { $( $field:ident $(: $key:literal)? ),* $(,)? }) => {
        impl Record for $T {
            fn write(&self, o: &mut ObjWriter<'_>) {
                $( self.$field.put(record!(@key $field $($key)?), o); )*
            }
            fn read(f: Fields<'_>) -> Result<Self, String> {
                only(f, &[$( record!(@key $field $($key)?) ),*])?;
                Ok(Self { $( $field: Field::get(f, record!(@key $field $($key)?))?, )* })
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}

/// Describes an enum written as a tagged object `{"t": tag, ..payload}`,
/// one row per variant: `tag => Variant { field: key, .. }`, where `key`
/// (an identifier) is the JSON key the field is stored under. A tuple
/// variant's payload is field `0`; a unit variant has none.
macro_rules! tagged {
    ($T:ty, $what:literal { $( $tag:literal => $V:ident { $( $field:tt: $key:ident ),* } ),* $(,)? }) => {
        impl Record for $T {
            fn write(&self, o: &mut ObjWriter<'_>) {
                match self { $(
                    Self::$V { $( $field: $key ),* } => {
                        o.str(TAG, $tag);
                        $( $key.put(stringify!($key), o); )*
                    }
                )* }
            }
            fn read(f: Fields<'_>) -> Result<Self, String> {
                match f.str(TAG)? {
                    $( $tag => {
                        only(f, &[TAG $(, stringify!($key))*])?;
                        Ok(Self::$V { $( $field: Field::get(f, stringify!($key))? ),* })
                    } )*
                    other => Err(format!("unknown {} {other:?}", $what)),
                }
            }
        }
    };
}

/// Describes a field-less enum written as a bare string, one row per
/// variant.
macro_rules! named {
    ($T:ty, $what:literal { $( $name:literal => $V:ident ),* $(,)? }) => {
        impl Field for $T {
            fn put(&self, key: &str, o: &mut ObjWriter<'_>) {
                o.str(key, match self { $( Self::$V => $name, )* });
            }
            fn get(f: Fields<'_>, key: &str) -> Result<Self, String> {
                match f.str(key)? {
                    $( $name => Ok(Self::$V), )*
                    other => Err(format!("unknown {} {other:?}", $what)),
                }
            }
        }
    };
}

record!(ScenarioConfig {
    seed,
    num_primaries,
    num_secondaries,
    lazy_interval: "lazy_interval_us",
    loss_probability,
    duplicate_probability,
    recovery,
    overload,
    group_tick: "group_tick_us",
    failure_timeout: "failure_timeout_us",
    min_primary_size,
    object,
    ordering,
    storage,
    clients,
    faults,
    run_limit: "run_limit_us",
});

record!(RecoveryPolicy {
    enabled,
    hedge_fraction,
});

record!(StorageConfig {
    enabled,
    seed,
    fsync_every,
    snapshot_every,
    torn_write_probability,
    bit_flip_probability,
    replay,
});

record!(QosSpec {
    staleness_threshold,
    deadline: "deadline_us",
    min_probability,
});

record!(ClientSpec {
    qos,
    request_delay: "request_delay_us",
    total_requests,
    pattern,
    policy,
    start_offset: "start_offset_us",
});

record!(FaultEvent {
    at: "at_us",
    target,
    kind,
});

tagged!(OpPattern, "op pattern" {
    "alternating_write_read" => AlternatingWriteRead {},
    "read_only" => ReadOnly {},
    "write_only" => WriteOnly {},
    "read_fraction" => ReadFraction { 0: p },
    "write_burst" => WriteBurst { 0: n },
});

tagged!(SelectionPolicy, "selection policy" {
    "probabilistic" => Probabilistic {},
    "all_replicas" => AllReplicas {},
    "single_round_robin" => SingleRoundRobin {},
    "random_k" => RandomK { 0: k },
    "greedy_cdf" => GreedyCdf {},
});

tagged!(FaultKind, "fault kind" {
    "crash" => Crash {},
    "restart" => Restart {},
    "isolate" => Isolate {},
    "reconnect" => Reconnect {},
    "degrade" => Degrade { factor: factor },
    "lossy" => Lossy { p: p },
    "restore_gray" => RestoreGray {},
    "cut_link" => CutLink { peer: peer },
    "heal_link" => HealLink { peer: peer },
});

tagged!(FaultTarget, "fault target" {
    "sequencer" => Sequencer {},
    "publisher" => Publisher {},
    "primary" => Primary { 0: i },
    "secondary" => Secondary { 0: i },
    "all_primaries" => AllPrimaries {},
    "all_servers" => AllServers {},
});

named!(ObjectKind, "object kind" {
    "register" => Register,
    "document" => Document,
    "ticker" => Ticker,
    "bank" => Bank,
});

named!(OrderingGuarantee, "ordering" {
    "sequential" => Sequential,
    "causal" => Causal,
    "fifo" => Fifo,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_paper_profile() {
        let config = ScenarioConfig::paper_validation(200, 0.9, 2, 42);
        let text = config_to_json(&config);
        let back = config_from_json(&text).expect("parses");
        assert_eq!(back, config);
        // Serialization is deterministic and parse∘serialize is identity.
        assert_eq!(config_to_json(&back), text);
    }

    /// `doc` with every bool flipped and every number raised, each by a
    /// different amount: no scalar keeps the value its field started with,
    /// and no two fields that agreed still do.
    fn perturbed(doc: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut bump = 0u32;
        let mut rest = doc;
        while let Some(c) = rest.chars().next() {
            let len = match c {
                '"' => rest[1..].find('"').expect("closing quote") + 2,
                '0'..='9' => rest
                    .find(|c: char| !c.is_ascii_digit() && c != '.')
                    .expect("a document ends in a brace"),
                't' if rest.starts_with("true") => 4,
                'f' if rest.starts_with("false") => 5,
                _ => c.len_utf8(),
            };
            let (token, tail) = rest.split_at(len);
            rest = tail;
            bump += 1;
            let _ = match (token, token.parse::<u64>(), token.parse::<f64>()) {
                ("true", ..) => write!(out, "false"),
                ("false", ..) => write!(out, "true"),
                (_, Ok(n), _) => write!(out, "{}", n + u64::from(bump)),
                (_, _, Ok(x)) => write!(out, "{}", x + f64::from(bump)),
                _ => write!(out, "{token}"),
            };
        }
        out
    }

    #[test]
    fn round_trips_every_enum_variant() {
        let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, 7);
        config.recovery = RecoveryPolicy::default();
        config.overload = true;
        config.object = ObjectKind::Bank;
        config.ordering = OrderingGuarantee::Fifo;
        config.storage = StorageConfig::durable();
        config.clients[0].pattern = OpPattern::ReadFraction(0.25);
        config.clients[0].policy = SelectionPolicy::RandomK(3);
        config.clients[1].pattern = OpPattern::WriteBurst(5);
        config.clients[1].policy = SelectionPolicy::GreedyCdf;
        config.faults = vec![
            FaultEvent {
                at: SimTime::from_secs(10),
                target: FaultTarget::Secondary(2),
                kind: FaultKind::CutLink {
                    peer: FaultTarget::Primary(1),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(20),
                target: FaultTarget::Secondary(2),
                kind: FaultKind::HealLink {
                    peer: FaultTarget::Primary(1),
                },
            },
        ];
        let text = config_to_json(&config);
        assert_eq!(config_from_json(&text).expect("parses"), config);
        // The same document with every scalar field of every record moved
        // off its default: a field the description dropped, or stored
        // under another field's key, would not come back.
        assert!(config.overload && config.recovery.hedge_fraction.is_some());
        let moved = perturbed(&text);
        let back = config_from_json(&moved).expect("the perturbed document parses");
        assert_eq!(config_to_json(&back), moved);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(config_from_json("{}").is_err());
        assert!(config_from_json("not json").is_err());
        let good = config_to_json(&ScenarioConfig::paper_validation(200, 0.9, 2, 1));
        let bad = good.replace("\"sequential\"", "\"zigzag\"");
        assert!(config_from_json(&bad).is_err());
        // A key the format does not know, at the root, inside a record and
        // inside a tagged object, is an error naming it.
        for (at, key) in [
            ("{", "sead"),
            ("\"storage\":{", "fsync_evry"),
            ("\"pattern\":{", "n"),
        ] {
            assert!(good.contains(at), "{at}");
            let bad = good.replacen(at, &format!("{at}\"{key}\":1,"), 1);
            let err = config_from_json(&bad).expect_err(key);
            assert!(err.contains(&format!("{key:?}")), "{key}: {err}");
        }
    }

    /// Repro files are outside input: a value too wide for its field is an
    /// error naming the key, not a silent wrap (4294967297 used to read
    /// back as 1).
    #[test]
    fn rejects_integers_too_wide_for_their_field() {
        let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, 1);
        config.clients[0].pattern = OpPattern::WriteBurst(5);
        let good = config_to_json(&config);
        for (key, value) in [
            (
                "staleness_threshold",
                config.clients[0].qos.staleness_threshold,
            ),
            ("n", 5),
        ] {
            let field = format!("\"{key}\":{value}");
            assert_eq!(good.matches(&field).count(), 1, "{field} is ambiguous");
            let wide = good.replacen(&field, &format!("\"{key}\":4294967297"), 1);
            let err = config_from_json(&wide).expect_err(key);
            assert!(err.contains(&format!("{key:?}")), "{key}: {err}");
        }
    }

    /// The byte fence for repro files: parse -> serialize is the identity
    /// on the checked-in artifact `crates/chaos/tests/corpus.rs` replays.
    #[test]
    fn checked_in_repro_round_trips_to_the_same_bytes() {
        let text = include_str!("../../../results/chaos_repro.json");
        assert_eq!(text.len(), 1010);
        let config = config_from_json(text).expect("checked-in repro parses");
        assert_eq!(config_to_json(&config), text);
    }
}
