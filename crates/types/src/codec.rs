//! The binary wire codec: one [`Wire`] description per persisted record.
//!
//! Everything AION persists — `AIONH` history files, the online checker's
//! spill segments, `AIONCKPT` checkpoints — is LEB128 varints, one-byte
//! tags and counted sequences, and every byte of it arrives from outside
//! the process. A record says how it is laid out exactly once, with
//! [`wire_struct!`](crate::wire_struct) or [`wire_enum!`](crate::wire_enum)
//! (or, where the layout is not a plain field list, one hand-written
//! `impl Wire` with `put` and `get` adjacent); its encoder, its decoder
//! and every bounds check come from that one description and the
//! primitive impls in this module: a narrow integer is range-checked, a
//! count is checked against the bytes that are left before anything is
//! allocated for it. `docs/formats.md` tabulates the records.
//!
//! History layout:
//!
//! ```text
//! magic  b"AIONH1"                (6 bytes)
//! kind   u8                       (0 = kv, 1 = list)
//! count  varint                   number of transactions
//! txn*   tid sid sno start commit nops (varints) then nops ops
//! op     tag u8:
//!          0 read-scalar   key value
//!          1 read-list     key len elem*
//!          2 put           key value
//!          3 append        key elem
//! ```
//!
//! Histories whose transactions carry declared isolation levels are
//! written under the magic `b"AIONH2"` instead: each transaction gains
//! one *level byte* between `commit` and `nops` (`0` = none, `1` = RC,
//! `2` = RA, `3` = SI, `4` = SER). Level-free histories keep emitting
//! byte-identical `AIONH1`, so pre-lattice files and fixtures never
//! change; [`decode_history`] reads both generations. A transaction on
//! its own ([`Transaction`]'s `Wire` impl: spill segments, checkpoints)
//! is always in the `AIONH2` layout.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{Key, SessionId, Timestamp, TxnId, Value};
use crate::level::IsolationLevel;
use crate::op::{DataKind, ListValue, Mutation, Op, Snapshot};
use crate::txn::Transaction;
use crate::History;
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;

const MAGIC: &[u8; 6] = b"AIONH1";
const MAGIC_V2: &[u8; 6] = b"AIONH2";

/// Errors produced while decoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Input ended before a complete value was read — or a count claimed
    /// more elements than there are bytes left.
    UnexpectedEof,
    /// The magic header did not match.
    BadMagic,
    /// An unknown data-kind, operation, variant or `bool` tag.
    BadTag(u8),
    /// A varint longer than 10 bytes (corrupt input).
    VarintOverflow,
    /// An unknown isolation-level byte in an `AIONH2` stream.
    BadLevel(u8),
    /// A varint that does not fit its field (`u32`, or `usize` on a
    /// narrow host).
    OutOfRange,
    /// A string that is not UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadMagic => write!(f, "bad magic header"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::BadLevel(b) => write!(f, "unknown isolation-level byte {b}"),
            CodecError::OutOfRange => write!(f, "varint out of range for its field"),
            CodecError::BadUtf8 => write!(f, "string is not valid utf-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value with one binary layout.
///
/// `put` cannot fail; `get` must turn *any* input into a value or a
/// [`CodecError`], never a panic, and every impl encodes to at least one
/// byte (which is what lets a sequence bound its count by the input
/// left). Dispatch is static; nothing is buffered in between.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn put(&self, buf: &mut impl BufMut);
    /// Decode one value from the front of `buf`.
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError>;
}

/// Describe a struct's wire layout: its fields, in wire order.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, buf: &mut impl ::bytes::BufMut) {
                $( $crate::codec::Wire::put(&self.$field, buf); )+
            }
            fn get(buf: &mut impl ::bytes::Buf) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty { $( $field: $crate::codec::Wire::get(buf)?, )+ })
            }
        }
    };
}

/// Describe an enum's wire layout: a one-byte tag per variant, then the
/// variant's fields in wire order. An unlisted tag decodes to
/// [`CodecError::BadTag`].
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident $( { $($field:ident),* } )? $( ( $($elem:ident),* ) )?
    ),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, buf: &mut impl ::bytes::BufMut) {
                match self { $(
                    $ty::$variant $( { $($field),* } )? $( ( $($elem),* ) )? => {
                        ::bytes::BufMut::put_u8(buf, $tag);
                        $( $( $crate::codec::Wire::put($field, buf); )* )?
                        $( $( $crate::codec::Wire::put($elem, buf); )* )?
                    }
                )+ }
            }
            fn get(buf: &mut impl ::bytes::Buf) -> Result<Self, $crate::codec::CodecError> {
                if !::bytes::Buf::has_remaining(&*buf) {
                    return Err($crate::codec::CodecError::UnexpectedEof);
                }
                match ::bytes::Buf::get_u8(buf) {
                    $( $tag => Ok($ty::$variant
                        $( { $( $field: $crate::codec::Wire::get(buf)? ),* } )?
                        $( ( $( { let $elem = $crate::codec::Wire::get(buf)?; $elem } ),* ) )?
                    ), )+
                    t => Err($crate::codec::CodecError::BadTag(t)),
                }
            }
        }
    };
}

/// Append a LEB128 varint to `buf`.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a LEB128 varint from `buf`.
fn get_varint(buf: &mut impl Buf) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = byte(buf)?;
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn byte(buf: &mut impl Buf) -> Result<u8, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

// --- primitives -------------------------------------------------------------

impl Wire for u64 {
    fn put(&self, buf: &mut impl BufMut) {
        put_varint(buf, *self);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        get_varint(buf)
    }
}

/// The narrower integers: a varint, range-checked on decode.
macro_rules! narrow_varint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut impl BufMut) {
                put_varint(buf, *self as u64);
            }
            fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
                <$t>::try_from(get_varint(buf)?).map_err(|_| CodecError::OutOfRange)
            }
        }
    )*};
}
narrow_varint!(u16, u32, usize);

impl Wire for bool {
    fn put(&self, buf: &mut impl BufMut) {
        buf.put_u8(u8::from(*self));
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        match byte(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// A presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut impl BufMut) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        Ok(if bool::get(buf)? { Some(T::get(buf)?) } else { None })
    }
}

/// A byte run: its length, then the bytes.
impl Wire for Vec<u8> {
    fn put(&self, buf: &mut impl BufMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        let n = usize::get(buf)?;
        if n > buf.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let mut bytes = vec![0u8; n];
        buf.copy_to_slice(&mut bytes);
        Ok(bytes)
    }
}

/// A UTF-8 byte run.
impl Wire for String {
    fn put(&self, buf: &mut impl BufMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        String::from_utf8(Vec::get(buf)?).map_err(|_| CodecError::BadUtf8)
    }
}

/// A path as the [`String`] of its lossy UTF-8 form.
impl Wire for PathBuf {
    fn put(&self, buf: &mut impl BufMut) {
        self.to_string_lossy().into_owned().put(buf);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        String::get(buf).map(PathBuf::from)
    }
}

/// Write `items` as the counted sequence [`Vec<T>`] decodes — for
/// canonical (sorted) views that only borrow their elements.
pub fn write_seq<'a, T: Wire + 'a>(
    buf: &mut impl BufMut,
    items: impl ExactSizeIterator<Item = &'a T>,
) {
    put_varint(buf, items.len() as u64);
    for item in items {
        item.put(buf);
    }
}

/// The one counted-sequence decoder. Every element takes at least one
/// byte, so a count beyond the bytes left cannot be honest: it is refused
/// before anything is allocated for it.
fn read_seq<B: Buf, T>(
    buf: &mut B,
    mut elem: impl FnMut(&mut B) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = usize::get(buf)?;
    if n > buf.remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(elem(buf)?);
    }
    Ok(out)
}

/// A count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut impl BufMut) {
        write_seq(buf, self.iter());
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        read_seq(buf, T::get)
    }
}

/// A fixed-length run: the elements alone, no count.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, buf: &mut impl BufMut) {
        self.iter().for_each(|item| item.put(buf));
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(buf)?;
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut impl BufMut) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        Ok((A::get(buf)?, B::get(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, buf: &mut impl BufMut) {
        self.0.put(buf);
        self.1.put(buf);
        self.2.put(buf);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        Ok((A::get(buf)?, B::get(buf)?, C::get(buf)?))
    }
}

/// A count, then `(key, value)` pairs in key order: hash order is an
/// insertion-history artifact and must not reach the bytes.
impl<K: Wire + Ord + Hash, V: Wire> Wire for FxHashMap<K, V> {
    fn put(&self, buf: &mut impl BufMut) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        put_varint(buf, pairs.len() as u64);
        for (k, v) in pairs {
            k.put(buf);
            v.put(buf);
        }
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        Ok(Vec::<(K, V)>::get(buf)?.into_iter().collect())
    }
}

/// A count, then the members in order.
impl<K: Wire + Ord + Hash> Wire for FxHashSet<K> {
    fn put(&self, buf: &mut impl BufMut) {
        let mut members: Vec<&K> = self.iter().collect();
        members.sort_unstable();
        write_seq(buf, members.into_iter());
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        Ok(Vec::<K>::get(buf)?.into_iter().collect())
    }
}

// --- history records --------------------------------------------------------

wire_struct!(TxnId { 0 });
wire_struct!(SessionId { 0 });
wire_struct!(Timestamp { 0 });
wire_struct!(Key { 0 });
wire_struct!(Value { 0 });
wire_enum!(DataKind { 0 => Kv, 1 => List });
wire_enum!(Snapshot { 0 => Scalar(v), 1 => List(l) });
wire_enum!(Mutation { 0 => Put(v), 1 => Append(v) });

impl Wire for ListValue {
    fn put(&self, buf: &mut impl BufMut) {
        write_seq(buf, self.elems().iter());
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        Ok(Vec::<Value>::get(buf)?.into())
    }
}

/// One tag for the operation kind *and* the shape of its value (see the
/// module docs), then the key, then the value.
impl Wire for Op {
    fn put(&self, buf: &mut impl BufMut) {
        let (tag, key) = match self {
            Op::Read { key, value: Snapshot::Scalar(_) } => (0, key),
            Op::Read { key, value: Snapshot::List(_) } => (1, key),
            Op::Write { key, mutation: Mutation::Put(_) } => (2, key),
            Op::Write { key, mutation: Mutation::Append(_) } => (3, key),
        };
        buf.put_u8(tag);
        key.put(buf);
        match self {
            Op::Read { value: Snapshot::List(l), .. } => l.put(buf),
            Op::Read { value: Snapshot::Scalar(v), .. }
            | Op::Write { mutation: Mutation::Put(v) | Mutation::Append(v), .. } => v.put(buf),
        }
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        let tag = byte(buf)?;
        let key = Key::get(buf)?;
        match tag {
            0 => Ok(Op::read(key, Value::get(buf)?)),
            1 => Ok(Op::Read { key, value: Snapshot::List(ListValue::get(buf)?) }),
            2 => Ok(Op::put(key, Value::get(buf)?)),
            3 => Ok(Op::append(key, Value::get(buf)?)),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// Encode an optional declared isolation level as one byte (the
/// `AIONH2` level byte).
fn level_to_byte(level: Option<IsolationLevel>) -> u8 {
    match level {
        None => 0,
        Some(IsolationLevel::ReadCommitted) => 1,
        Some(IsolationLevel::ReadAtomic) => 2,
        Some(IsolationLevel::Si) => 3,
        // A future level must claim its byte here before being written.
        Some(IsolationLevel::Ser) => 4,
    }
}

/// Decode an `AIONH2` level byte.
pub fn level_from_byte(b: u8) -> Result<Option<IsolationLevel>, CodecError> {
    match b {
        0 => Ok(None),
        1 => Ok(Some(IsolationLevel::ReadCommitted)),
        2 => Ok(Some(IsolationLevel::ReadAtomic)),
        3 => Ok(Some(IsolationLevel::Si)),
        4 => Ok(Some(IsolationLevel::Ser)),
        b => Err(CodecError::BadLevel(b)),
    }
}

/// A *resolved* level: the level byte, where "none" (0) is not a value.
impl Wire for IsolationLevel {
    fn put(&self, buf: &mut impl BufMut) {
        buf.put_u8(level_to_byte(Some(*self)));
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        level_from_byte(byte(buf)?)?.ok_or(CodecError::BadLevel(0))
    }
}

/// A transaction in the `AIONH2` layout (`ext`, level byte present) or
/// the level-free `AIONH1` one, which drops any declared level.
fn encode_txn(buf: &mut impl BufMut, t: &Transaction, ext: bool) {
    t.tid.put(buf);
    t.sid.put(buf);
    t.sno.put(buf);
    t.start_ts.put(buf);
    t.commit_ts.put(buf);
    if ext {
        buf.put_u8(level_to_byte(t.level));
    }
    t.ops.put(buf);
}

fn decode_txn(buf: &mut impl Buf, ext: bool) -> Result<Transaction, CodecError> {
    Ok(Transaction {
        tid: Wire::get(buf)?,
        sid: Wire::get(buf)?,
        sno: Wire::get(buf)?,
        start_ts: Wire::get(buf)?,
        commit_ts: Wire::get(buf)?,
        level: if ext { level_from_byte(byte(buf)?)? } else { None },
        ops: Wire::get(buf)?,
    })
}

/// The `AIONH2` layout: the declared level survives, so a spilled or
/// checkpointed transaction resolves to the level it was checked at.
impl Wire for Transaction {
    fn put(&self, buf: &mut impl BufMut) {
        encode_txn(buf, self, true);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        decode_txn(buf, true)
    }
}

/// Encode a whole history to bytes: level-free histories emit the
/// byte-stable `AIONH1` layout; histories with any declared level emit
/// `AIONH2` (one level byte per transaction).
pub fn encode_history(h: &History) -> Vec<u8> {
    let ext = h.txns.iter().any(|t| t.level.is_some());
    let mut buf = BytesMut::with_capacity(64 + h.txns.len() * 32);
    buf.put_slice(if ext { MAGIC_V2 } else { MAGIC });
    h.kind.put(&mut buf);
    put_varint(&mut buf, h.txns.len() as u64);
    for t in &h.txns {
        encode_txn(&mut buf, t, ext);
    }
    buf.to_vec()
}

/// Decode a history from bytes (either `AIONH1` or `AIONH2`).
pub fn decode_history(mut data: &[u8]) -> Result<History, CodecError> {
    if data.remaining() < MAGIC.len() {
        return Err(CodecError::UnexpectedEof);
    }
    let mut magic = [0u8; 6];
    data.copy_to_slice(&mut magic);
    let ext = match &magic {
        m if m == MAGIC => false,
        m if m == MAGIC_V2 => true,
        _ => return Err(CodecError::BadMagic),
    };
    let kind = DataKind::get(&mut data)?;
    Ok(History { kind, txns: read_seq(&mut data, |buf| decode_txn(buf, ext))? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnBuilder;

    fn sample_kv() -> History {
        let mut h = History::new(DataKind::Kv);
        h.push(
            TxnBuilder::new(1)
                .session(0, 0)
                .interval(10, 20)
                .put(Key(1), Value(5))
                .read(Key(2), Value(0))
                .build(),
        );
        h.push(TxnBuilder::new(2).session(1, 0).interval(30, 40).read(Key(1), Value(5)).build());
        h
    }

    fn sample_list() -> History {
        let mut h = History::new(DataKind::List);
        h.push(
            TxnBuilder::new(1)
                .session(0, 0)
                .interval(10, 20)
                .append(Key(1), Value(5))
                .read_list(Key(1), vec![Value(5)])
                .read_list(Key(2), vec![])
                .build(),
        );
        h
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 255, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_eof_and_overflow() {
        let mut empty: &[u8] = &[];
        assert_eq!(get_varint(&mut empty), Err(CodecError::UnexpectedEof));
        let mut long: &[u8] = &[0x80; 11];
        assert_eq!(get_varint(&mut long), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn binary_roundtrip_kv() {
        let h = sample_kv();
        let bytes = encode_history(&h);
        assert_eq!(decode_history(&bytes).unwrap(), h);
    }

    #[test]
    fn binary_roundtrip_list() {
        let h = sample_list();
        let bytes = encode_history(&h);
        assert_eq!(decode_history(&bytes).unwrap(), h);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut bytes = encode_history(&sample_kv());
        bytes[0] = b'X';
        assert_eq!(decode_history(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn binary_rejects_truncation() {
        let bytes = encode_history(&sample_kv());
        for cut in [3, 8, bytes.len() - 1] {
            assert!(decode_history(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn standalone_txn_roundtrip() {
        let t = TxnBuilder::new(9).session(2, 4).interval(7, 7).read(Key(3), Value(1)).build();
        let mut buf = BytesMut::new();
        t.put(&mut buf);
        let mut slice = &buf[..];
        assert_eq!(Transaction::get(&mut slice).unwrap(), t);
        assert!(slice.is_empty());
    }

    fn mixed_level_history() -> History {
        let mut h = sample_kv();
        h.txns[0].level = Some(IsolationLevel::ReadCommitted);
        h.txns[1].level = Some(IsolationLevel::Ser);
        h.push(TxnBuilder::new(3).session(2, 0).interval(50, 60).build()); // undeclared
        h
    }

    #[test]
    fn level_free_histories_stay_byte_identical_aionh1() {
        let bytes = encode_history(&sample_kv());
        assert_eq!(&bytes[..6], MAGIC, "no level ⇒ v1 magic, old fixtures unchanged");
        // A declared level flips the whole stream to AIONH2.
        let bytes2 = encode_history(&mixed_level_history());
        assert_eq!(&bytes2[..6], MAGIC_V2);
    }

    #[test]
    fn aionh2_roundtrips_levels_losslessly() {
        let h = mixed_level_history();
        let back = decode_history(&encode_history(&h)).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.txns[0].level, Some(IsolationLevel::ReadCommitted));
        assert_eq!(back.txns[2].level, None);
        // Standalone txn encode (the spill-store path) keeps the level.
        let mut buf = BytesMut::new();
        h.txns[0].put(&mut buf);
        assert_eq!(Transaction::get(&mut &buf[..]).unwrap(), h.txns[0]);
        // The v1 layout drops the declaration by design.
        let mut buf = BytesMut::new();
        encode_txn(&mut buf, &h.txns[0], false);
        assert_eq!(decode_txn(&mut &buf[..], false).unwrap().level, None);
    }

    #[test]
    fn bad_level_byte_is_typed() {
        let h = mixed_level_history();
        let mut bytes = encode_history(&h);
        // The level byte of the first transaction sits right after its
        // five varint prefix fields; find it by re-encoding the prefix.
        let mut prefix = BytesMut::new();
        prefix.put_slice(MAGIC_V2);
        prefix.put_u8(0);
        put_varint(&mut prefix, h.txns.len() as u64);
        put_varint(&mut prefix, h.txns[0].tid.0);
        put_varint(&mut prefix, u64::from(h.txns[0].sid.0));
        put_varint(&mut prefix, u64::from(h.txns[0].sno));
        put_varint(&mut prefix, h.txns[0].start_ts.0);
        put_varint(&mut prefix, h.txns[0].commit_ts.0);
        let at = prefix.len();
        bytes[at] = 99;
        assert_eq!(decode_history(&bytes), Err(CodecError::BadLevel(99)));
        assert_eq!(level_from_byte(99), Err(CodecError::BadLevel(99)));
        for l in IsolationLevel::ALL {
            assert_eq!(level_from_byte(level_to_byte(Some(*l))).unwrap(), Some(*l));
        }
        assert_eq!(level_from_byte(0).unwrap(), None);
    }

    /// One `AIONH2` transaction with the given `sid`/`sno` varints.
    fn aionh2_with(sid: u64, sno: u64) -> Vec<u8> {
        let mut buf = MAGIC_V2.to_vec();
        buf.put_u8(0); // kv
        for v in [1, 9, sid, sno, 10, 20] {
            put_varint(&mut buf, v); // count, tid, sid, sno, start, commit
        }
        buf.put_slice(&[3, 0]); // level SI, no ops
        buf
    }

    /// A `sid`/`sno` beyond `u32` used to be narrowed with `as` and come
    /// back as a different session; `aion-io`'s binary reader rejects it.
    #[test]
    fn narrow_fields_are_range_checked_not_truncated() {
        let h = decode_history(&aionh2_with(3, 4)).unwrap();
        assert_eq!((h.txns[0].sid, h.txns[0].sno), (SessionId(3), 4));
        assert_eq!(decode_history(&aionh2_with((1 << 32) + 3, 4)), Err(CodecError::OutOfRange));
        assert_eq!(decode_history(&aionh2_with(3, (1 << 32) + 4)), Err(CodecError::OutOfRange));
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(u32::get(&mut &buf[..]), Err(CodecError::OutOfRange));
        assert_eq!(u64::get(&mut &buf[..]), Ok(1 << 32));
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::from(u16::MAX) + 1);
        assert_eq!(u16::get(&mut &buf[..]), Err(CodecError::OutOfRange));
        // A fixed-length array is its elements alone, and needs all of them.
        let mut buf = BytesMut::new();
        [u16::MAX, 0, 7].put(&mut buf);
        assert_eq!(buf.len(), 5);
        assert_eq!(<[u16; 3]>::get(&mut &buf[..]), Ok([u16::MAX, 0, 7]));
        assert_eq!(<[u16; 3]>::get(&mut &buf[..4]), Err(CodecError::UnexpectedEof));
    }

    /// A count is checked against the bytes left before anything is
    /// allocated or decoded for it.
    #[test]
    fn hostile_count_is_refused_before_any_element_is_decoded() {
        use std::cell::Cell;
        thread_local!(static DECODES: Cell<usize> = const { Cell::new(0) });
        struct Counted;
        impl Wire for Counted {
            fn put(&self, buf: &mut impl BufMut) {
                buf.put_u8(0);
            }
            fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
                DECODES.with(|d| d.set(d.get() + 1));
                byte(buf).map(|_| Counted)
            }
        }
        let mut hostile = BytesMut::new();
        put_varint(&mut hostile, 1 << 40);
        hostile.put_slice(&[1, 2, 3]);
        assert_eq!(Vec::<Counted>::get(&mut &hostile[..]).err(), Some(CodecError::UnexpectedEof));
        assert_eq!(DECODES.with(Cell::get), 0);
        assert_eq!(Vec::<u8>::get(&mut &hostile[..]), Err(CodecError::UnexpectedEof));
        // An honest count still decodes, one element per byte at the least.
        assert_eq!(Vec::<Counted>::get(&mut &[3u8, 0, 0, 0][..]).unwrap().len(), 3);
        assert_eq!(DECODES.with(Cell::get), 3);

        let mut history = MAGIC.to_vec();
        history.put_u8(0);
        history.put_slice(&hostile);
        assert_eq!(decode_history(&history), Err(CodecError::UnexpectedEof));
    }
}
