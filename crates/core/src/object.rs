//! The replicated application object hosted behind a server gateway.
//!
//! The middleware is application-agnostic: it delivers committed updates and
//! staleness-checked reads to a [`ReplicatedObject`] and ships snapshots of
//! its state in lazy updates and state transfers. This module also provides
//! ready-made objects used by the examples and experiments.

use crate::wire::{Method, Operation};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;
use std::fmt;

/// A deterministic state machine replicated by the middleware.
///
/// Updates must be deterministic: every primary replica applies the same
/// committed sequence and must reach the same state. Snapshots must capture
/// the full state, since lazy updates replace the state of secondary
/// replicas wholesale.
///
/// Objects need not be `Send`: a replica lives inside one single-threaded
/// `World`, which owns every actor and drives them from one thread.
pub trait ReplicatedObject: fmt::Debug {
    /// Applies a committed state-modifying operation, returning the reply
    /// payload for the issuing client. The reply is encoded through
    /// `scratch`, a caller-retained staging buffer, so a gateway servicing
    /// a stream of requests reuses one allocation instead of growing a
    /// fresh buffer per reply.
    fn apply_update(&mut self, op: &Operation, scratch: &mut BytesMut) -> Bytes;

    /// Services a read-only operation against the current state, encoding
    /// the reply through `scratch` like [`ReplicatedObject::apply_update`].
    fn read(&self, op: &Operation, scratch: &mut BytesMut) -> Bytes;

    /// Serializes the full state.
    fn snapshot(&self) -> Bytes;

    /// Replaces the state with a previously taken snapshot.
    ///
    /// # Panics
    ///
    /// Implementations may panic on malformed snapshots; snapshots are only
    /// ever produced by [`ReplicatedObject::snapshot`] of the same type.
    fn install_snapshot(&mut self, snapshot: &Bytes);
}

/// A single versioned value: the simplest replicated object.
///
/// * update `set` — replaces the value with the operation payload,
/// * read `get` — returns `version (u64 BE) || value`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionedRegister {
    version: u64,
    /// Shares the applied operation's payload; no copy per update.
    value: Bytes,
}

impl VersionedRegister {
    /// Creates an empty register at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of updates applied.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current value.
    pub fn value(&self) -> &[u8] {
        &self.value
    }
}

impl ReplicatedObject for VersionedRegister {
    fn apply_update(&mut self, op: &Operation, scratch: &mut BytesMut) -> Bytes {
        self.version += 1;
        self.value = op.payload.clone();
        scratch.clear();
        scratch.put_u64(self.version);
        Bytes::copy_from_slice(scratch.as_ref())
    }

    fn read(&self, _op: &Operation, scratch: &mut BytesMut) -> Bytes {
        scratch.clear();
        scratch.put_u64(self.version);
        scratch.put_slice(&self.value);
        Bytes::copy_from_slice(scratch.as_ref())
    }

    fn snapshot(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(16 + self.value.len());
        out.put_u64(self.version);
        out.put_u64(self.value.len() as u64);
        out.put_slice(&self.value);
        out.freeze()
    }

    fn install_snapshot(&mut self, snapshot: &Bytes) {
        let mut buf = snapshot.clone();
        assert!(buf.remaining() >= 16, "register snapshot too short");
        self.version = buf.get_u64();
        let len = buf.get_u64() as usize;
        assert!(buf.remaining() >= len, "register snapshot truncated");
        self.value = buf.copy_to_bytes(len);
    }
}

/// A shared document edited in sequential mode: the paper's motivating
/// document-sharing application (§2).
///
/// * update `append` — appends the payload as a new line; the document
///   version is the number of committed edits,
/// * read `fetch` — returns `version (u64 BE) || full text`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedDocument {
    lines: Vec<Vec<u8>>,
}

impl SharedDocument {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The document version (number of committed edits).
    pub fn version(&self) -> u64 {
        self.lines.len() as u64
    }

    /// The document text, lines joined with `\n`.
    pub fn text(&self) -> String {
        self.lines
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl ReplicatedObject for SharedDocument {
    fn apply_update(&mut self, op: &Operation, scratch: &mut BytesMut) -> Bytes {
        self.lines.push(op.payload.to_vec());
        scratch.clear();
        scratch.put_u64(self.version());
        Bytes::copy_from_slice(scratch.as_ref())
    }

    fn read(&self, _op: &Operation, scratch: &mut BytesMut) -> Bytes {
        // `text()` lossy-converts each line; reply bytes must stay identical
        // to the pre-scratch encoding, so the conversion is kept as-is.
        let text = self.text();
        scratch.clear();
        scratch.put_u64(self.version());
        scratch.put_slice(text.as_bytes());
        Bytes::copy_from_slice(scratch.as_ref())
    }

    fn snapshot(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u64(self.lines.len() as u64);
        for line in &self.lines {
            out.put_u64(line.len() as u64);
            out.put_slice(line);
        }
        out.freeze()
    }

    fn install_snapshot(&mut self, snapshot: &Bytes) {
        let mut buf = snapshot.clone();
        assert!(buf.remaining() >= 8, "document snapshot too short");
        let n = buf.get_u64() as usize;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            assert!(buf.remaining() >= 8, "document snapshot truncated");
            let len = buf.get_u64() as usize;
            assert!(buf.remaining() >= len, "document snapshot truncated");
            lines.push(buf.copy_to_bytes(len).to_vec());
        }
        self.lines = lines;
    }
}

/// A stock ticker board: symbol -> price in cents, the paper's online
/// stock-trading motivation (§1).
///
/// * update `quote` — payload `symbol\0price_cents(u64 BE)` sets a price,
/// * read `price` — payload names the symbol; returns `price (u64 BE)` or
///   empty if unknown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickerBoard {
    prices: BTreeMap<String, u64>,
    updates: u64,
}

impl TickerBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a `quote` update payload.
    pub fn encode_quote(symbol: &str, price_cents: u64) -> Bytes {
        let mut out = BytesMut::with_capacity(symbol.len() + 9);
        out.put_slice(symbol.as_bytes());
        out.put_u8(0);
        out.put_u64(price_cents);
        out.freeze()
    }

    /// The current price of `symbol`, if quoted.
    pub fn price(&self, symbol: &str) -> Option<u64> {
        self.prices.get(symbol).copied()
    }

    /// Number of quotes applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

impl ReplicatedObject for TickerBoard {
    fn apply_update(&mut self, op: &Operation, scratch: &mut BytesMut) -> Bytes {
        let raw = op.payload.as_ref();
        let sep = raw
            .iter()
            .position(|&b| b == 0)
            .expect("quote payload must contain a NUL separator");
        let symbol = String::from_utf8_lossy(&raw[..sep]).into_owned();
        let mut rest = &raw[sep + 1..];
        assert!(rest.len() >= 8, "quote payload missing price");
        let price = rest.get_u64();
        self.prices.insert(symbol, price);
        self.updates += 1;
        scratch.clear();
        scratch.put_u64(self.updates);
        Bytes::copy_from_slice(scratch.as_ref())
    }

    fn read(&self, op: &Operation, scratch: &mut BytesMut) -> Bytes {
        let symbol = String::from_utf8_lossy(op.payload.as_ref());
        match self.prices.get(symbol.as_ref()) {
            Some(price) => {
                scratch.clear();
                scratch.put_u64(*price);
                Bytes::copy_from_slice(scratch.as_ref())
            }
            None => Bytes::new(),
        }
    }

    fn snapshot(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u64(self.updates);
        out.put_u64(self.prices.len() as u64);
        for (sym, price) in &self.prices {
            out.put_u64(sym.len() as u64);
            out.put_slice(sym.as_bytes());
            out.put_u64(*price);
        }
        out.freeze()
    }

    fn install_snapshot(&mut self, snapshot: &Bytes) {
        let mut buf = snapshot.clone();
        assert!(buf.remaining() >= 16, "ticker snapshot too short");
        self.updates = buf.get_u64();
        let n = buf.get_u64() as usize;
        let mut prices = BTreeMap::new();
        for _ in 0..n {
            let len = buf.get_u64() as usize;
            let sym = String::from_utf8_lossy(&buf.copy_to_bytes(len)).into_owned();
            let price = buf.get_u64();
            prices.insert(sym, price);
        }
        self.prices = prices;
    }
}

/// A bank account book: the paper's example of a service with FIFO
/// ordering (Figure 2: "Service B represents an application, such as a
/// banking transaction, that guarantees FIFO ordering").
///
/// * update `deposit` — payload `account\0amount_cents(u64 BE)`,
/// * update `withdraw` — payload `account\0amount_cents(u64 BE)`; clamps at
///   zero (an overdraft attempt withdraws the remaining balance),
/// * read `balance` — payload names the account; returns `balance (u64
///   BE)`, zero for unknown accounts.
///
/// Deposits and withdrawals on *different* accounts commute, so per-client
/// FIFO delivery (each client touching its own accounts) keeps replicas
/// convergent without a total order — exactly the workload class the FIFO
/// handler targets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccountBook {
    balances: BTreeMap<String, u64>,
    transactions: u64,
}

impl AccountBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a `deposit`/`withdraw` payload.
    pub fn encode_tx(account: &str, amount_cents: u64) -> Bytes {
        let mut out = BytesMut::with_capacity(account.len() + 9);
        out.put_slice(account.as_bytes());
        out.put_u8(0);
        out.put_u64(amount_cents);
        out.freeze()
    }

    /// The balance of `account` in cents (zero if unknown).
    pub fn balance(&self, account: &str) -> u64 {
        self.balances.get(account).copied().unwrap_or(0)
    }

    /// Number of transactions applied.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    fn decode(payload: &[u8]) -> (String, u64) {
        let sep = payload
            .iter()
            .position(|&b| b == 0)
            .expect("transaction payload must contain a NUL separator");
        let account = String::from_utf8_lossy(&payload[..sep]).into_owned();
        let mut rest = &payload[sep + 1..];
        assert!(rest.len() >= 8, "transaction payload missing amount");
        (account, rest.get_u64())
    }
}

impl ReplicatedObject for AccountBook {
    fn apply_update(&mut self, op: &Operation, scratch: &mut BytesMut) -> Bytes {
        let (account, amount) = Self::decode(op.payload.as_ref());
        let balance = self.balances.entry(account).or_insert(0);
        match op.method {
            Method::Withdraw => *balance = balance.saturating_sub(amount),
            // Anything that is not a withdrawal deposits; reads never
            // reach apply_update.
            _ => *balance = balance.saturating_add(amount),
        }
        self.transactions += 1;
        scratch.clear();
        scratch.put_u64(*balance);
        Bytes::copy_from_slice(scratch.as_ref())
    }

    fn read(&self, op: &Operation, scratch: &mut BytesMut) -> Bytes {
        let account = String::from_utf8_lossy(op.payload.as_ref());
        scratch.clear();
        scratch.put_u64(self.balance(account.as_ref()));
        Bytes::copy_from_slice(scratch.as_ref())
    }

    fn snapshot(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u64(self.transactions);
        out.put_u64(self.balances.len() as u64);
        for (account, balance) in &self.balances {
            out.put_u64(account.len() as u64);
            out.put_slice(account.as_bytes());
            out.put_u64(*balance);
        }
        out.freeze()
    }

    fn install_snapshot(&mut self, snapshot: &Bytes) {
        let mut buf = snapshot.clone();
        assert!(buf.remaining() >= 16, "account snapshot too short");
        self.transactions = buf.get_u64();
        let n = buf.get_u64() as usize;
        let mut balances = BTreeMap::new();
        for _ in 0..n {
            let len = buf.get_u64() as usize;
            let account = String::from_utf8_lossy(&buf.copy_to_bytes(len)).into_owned();
            balances.insert(account, buf.get_u64());
        }
        self.balances = balances;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(object: &mut dyn ReplicatedObject, op: &Operation) -> Bytes {
        object.apply_update(op, &mut BytesMut::new())
    }

    fn read(object: &dyn ReplicatedObject, op: &Operation) -> Bytes {
        object.read(op, &mut BytesMut::new())
    }

    #[test]
    fn register_update_read_roundtrip() {
        let mut reg = VersionedRegister::new();
        assert_eq!(reg.version(), 0);
        let ack = apply(&mut reg, &Operation::new(Method::Set, b"hello".to_vec()));
        assert_eq!(ack.as_ref(), &1u64.to_be_bytes());
        let out = read(&reg, &Operation::new(Method::Get, vec![]));
        assert_eq!(&out[..8], &1u64.to_be_bytes());
        assert_eq!(&out[8..], b"hello");
    }

    #[test]
    fn register_snapshot_roundtrip() {
        let mut reg = VersionedRegister::new();
        apply(&mut reg, &Operation::new(Method::Set, b"abc".to_vec()));
        apply(&mut reg, &Operation::new(Method::Set, b"defg".to_vec()));
        let snap = reg.snapshot();
        let mut other = VersionedRegister::new();
        other.install_snapshot(&snap);
        assert_eq!(other, reg);
        assert_eq!(other.version(), 2);
        assert_eq!(other.value(), b"defg");
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn register_rejects_short_snapshot() {
        let mut reg = VersionedRegister::new();
        reg.install_snapshot(&Bytes::from_static(&[1, 2, 3]));
    }

    #[test]
    fn document_appends_and_versions() {
        let mut doc = SharedDocument::new();
        apply(
            &mut doc,
            &Operation::new(Method::Append, b"line one".to_vec()),
        );
        apply(
            &mut doc,
            &Operation::new(Method::Append, b"line two".to_vec()),
        );
        assert_eq!(doc.version(), 2);
        assert_eq!(doc.text(), "line one\nline two");
        let out = read(&doc, &Operation::new(Method::Fetch, vec![]));
        assert_eq!(&out[..8], &2u64.to_be_bytes());
        assert_eq!(&out[8..], b"line one\nline two");
    }

    #[test]
    fn document_snapshot_roundtrip() {
        let mut doc = SharedDocument::new();
        for i in 0..5 {
            apply(
                &mut doc,
                &Operation::new(Method::Append, format!("line {i}").into_bytes()),
            );
        }
        let snap = doc.snapshot();
        let mut other = SharedDocument::new();
        apply(
            &mut other,
            &Operation::new(Method::Append, b"junk".to_vec()),
        );
        other.install_snapshot(&snap);
        assert_eq!(other, doc);
    }

    #[test]
    fn ticker_quotes_and_reads() {
        let mut board = TickerBoard::new();
        apply(
            &mut board,
            &Operation::new(Method::Quote, TickerBoard::encode_quote("ACME", 1234)),
        );
        apply(
            &mut board,
            &Operation::new(Method::Quote, TickerBoard::encode_quote("WIDG", 42)),
        );
        apply(
            &mut board,
            &Operation::new(Method::Quote, TickerBoard::encode_quote("ACME", 1300)),
        );
        assert_eq!(board.price("ACME"), Some(1300));
        assert_eq!(board.price("WIDG"), Some(42));
        assert_eq!(board.updates(), 3);
        let out = read(&board, &Operation::new(Method::Price, b"ACME".to_vec()));
        assert_eq!(out.as_ref(), &1300u64.to_be_bytes());
        assert!(read(&board, &Operation::new(Method::Price, b"NONE".to_vec())).is_empty());
    }

    #[test]
    fn ticker_snapshot_roundtrip() {
        let mut board = TickerBoard::new();
        apply(
            &mut board,
            &Operation::new(Method::Quote, TickerBoard::encode_quote("A", 1)),
        );
        apply(
            &mut board,
            &Operation::new(Method::Quote, TickerBoard::encode_quote("B", 2)),
        );
        let snap = board.snapshot();
        let mut other = TickerBoard::new();
        other.install_snapshot(&snap);
        assert_eq!(other, board);
    }

    #[test]
    fn account_book_deposits_and_withdrawals() {
        let mut book = AccountBook::new();
        let ack = apply(
            &mut book,
            &Operation::new(Method::Deposit, AccountBook::encode_tx("alice", 500)),
        );
        assert_eq!(ack.as_ref(), &500u64.to_be_bytes());
        apply(
            &mut book,
            &Operation::new(Method::Withdraw, AccountBook::encode_tx("alice", 200)),
        );
        assert_eq!(book.balance("alice"), 300);
        // Overdraft clamps to zero.
        apply(
            &mut book,
            &Operation::new(Method::Withdraw, AccountBook::encode_tx("alice", 9999)),
        );
        assert_eq!(book.balance("alice"), 0);
        assert_eq!(book.balance("bob"), 0);
        assert_eq!(book.transactions(), 3);
        let out = read(&book, &Operation::new(Method::Balance, b"alice".to_vec()));
        assert_eq!(out.as_ref(), &0u64.to_be_bytes());
    }

    #[test]
    fn account_book_snapshot_roundtrip() {
        let mut book = AccountBook::new();
        apply(
            &mut book,
            &Operation::new(Method::Deposit, AccountBook::encode_tx("a", 10)),
        );
        apply(
            &mut book,
            &Operation::new(Method::Deposit, AccountBook::encode_tx("b", 20)),
        );
        let snap = book.snapshot();
        let mut other = AccountBook::new();
        other.install_snapshot(&snap);
        assert_eq!(other, book);
        assert_eq!(other.balance("b"), 20);
    }

    #[test]
    fn account_ops_on_distinct_accounts_commute() {
        let d = |acc: &str, amt| Operation::new(Method::Deposit, AccountBook::encode_tx(acc, amt));
        let mut ab = AccountBook::new();
        apply(&mut ab, &d("a", 1));
        apply(&mut ab, &d("b", 2));
        let mut ba = AccountBook::new();
        apply(&mut ba, &d("b", 2));
        apply(&mut ba, &d("a", 1));
        assert_eq!(ab.balances, ba.balances);
    }

    #[test]
    fn updates_are_deterministic_across_replicas() {
        let ops: Vec<Operation> = (0..10)
            .map(|i| Operation::new(Method::Quote, TickerBoard::encode_quote("S", i * 7)))
            .collect();
        let mut a = TickerBoard::new();
        let mut b = TickerBoard::new();
        for op in &ops {
            apply(&mut a, op);
            apply(&mut b, op);
        }
        assert_eq!(a, b);
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
