//! Self-describing binary encoding of tuple fields.
//!
//! The storage engine stores opaque byte records; the execution layer
//! encodes each tuple as a sequence of [`Field`]s. The format is
//! tag-prefixed and length-delimited so records can be decoded without the
//! schema (the schema is still what gives fields their names and order).

use crate::{StorageError, StorageResult};
use bytes::{Buf, BufMut};
use sos_geom::{Point, Polygon, Rect};

/// A single atomic field value as stored on a page. Mirrors the paper's
/// `DATA` kind (int, real, string, bool) extended with the geometric types
/// of Section 4 (point, rect, pgon).
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    Int(i64),
    Real(f64),
    Str(String),
    Bool(bool),
    Point(Point),
    Rect(Rect),
    Pgon(Polygon),
}

const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_POINT: u8 = 5;
const TAG_RECT: u8 = 6;
const TAG_PGON: u8 = 7;

impl Field {
    /// Append the encoding of this field to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Field::Int(v) => {
                out.put_u8(TAG_INT);
                out.put_i64_le(*v);
            }
            Field::Real(v) => {
                out.put_u8(TAG_REAL);
                out.put_f64_le(*v);
            }
            Field::Str(s) => {
                out.put_u8(TAG_STR);
                out.put_u32_le(s.len() as u32);
                out.put_slice(s.as_bytes());
            }
            Field::Bool(b) => {
                out.put_u8(TAG_BOOL);
                out.put_u8(*b as u8);
            }
            Field::Point(p) => {
                out.put_u8(TAG_POINT);
                out.put_f64_le(p.x);
                out.put_f64_le(p.y);
            }
            Field::Rect(r) => {
                out.put_u8(TAG_RECT);
                out.put_f64_le(r.min_x);
                out.put_f64_le(r.min_y);
                out.put_f64_le(r.max_x);
                out.put_f64_le(r.max_y);
            }
            Field::Pgon(p) => {
                out.put_u8(TAG_PGON);
                out.put_u32_le(p.vertices().len() as u32);
                for v in p.vertices() {
                    out.put_f64_le(v.x);
                    out.put_f64_le(v.y);
                }
            }
        }
    }

    /// Decode one field from the front of `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> StorageResult<Field> {
        read_field(buf).map(|f| f.to_field())
    }
}

/// A field read in place from a record's bytes: strings borrow the
/// record, polygons keep their raw vertex bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldRef<'a> {
    Int(i64),
    Real(f64),
    Str(&'a str),
    Bool(bool),
    Point(Point),
    Rect(Rect),
    /// `x, y` little-endian `f64` pairs, at least three.
    Pgon(&'a [u8]),
}

impl FieldRef<'_> {
    /// The owned field.
    pub fn to_field(&self) -> Field {
        match *self {
            FieldRef::Int(v) => Field::Int(v),
            FieldRef::Real(v) => Field::Real(v),
            FieldRef::Str(s) => Field::Str(s.to_string()),
            FieldRef::Bool(b) => Field::Bool(b),
            FieldRef::Point(p) => Field::Point(p),
            FieldRef::Rect(r) => Field::Rect(r),
            FieldRef::Pgon(mut vs) => {
                let mut pts = Vec::with_capacity(vs.len() / 16);
                while !vs.is_empty() {
                    let x = vs.get_f64_le();
                    let y = vs.get_f64_le();
                    pts.push(Point::new(x, y));
                }
                Field::Pgon(Polygon::new(pts))
            }
        }
    }
}

/// Read the field at the front of `buf` in place, advancing past it.
/// This is the one place the field format is checked: [`Field::decode`]
/// and [`RecordView`] both read through it.
#[inline(always)]
fn read_field<'a>(buf: &mut &'a [u8]) -> StorageResult<FieldRef<'a>> {
    let Some((&tag, mut rest)) = buf.split_first() else {
        return Err(corrupt("empty buffer decoding field"));
    };
    let field = match tag {
        TAG_INT => FieldRef::Int(i64::from_le_bytes(*take(&mut rest)?)),
        TAG_REAL => FieldRef::Real(f64::from_le_bytes(*take(&mut rest)?)),
        TAG_STR => {
            let len = u32::from_le_bytes(*take(&mut rest)?) as usize;
            let s = take_slice(&mut rest, len)?;
            FieldRef::Str(
                std::str::from_utf8(s).map_err(|_| corrupt("invalid utf8 in string field"))?,
            )
        }
        TAG_BOOL => FieldRef::Bool(take::<1>(&mut rest)?[0] != 0),
        TAG_POINT => {
            let [x, y] = take_f64s(&mut rest)?;
            FieldRef::Point(Point::new(x, y))
        }
        TAG_RECT => {
            let [a, b, c, d] = take_f64s(&mut rest)?;
            FieldRef::Rect(Rect::new(a, b, c, d))
        }
        TAG_PGON => {
            let n = u32::from_le_bytes(*take(&mut rest)?) as usize;
            if n < 3 {
                return Err(corrupt("polygon with < 3 vertices"));
            }
            FieldRef::Pgon(take_slice(&mut rest, n * 16)?)
        }
        t => return Err(StorageError::Corrupt(format!("unknown field tag {t}"))),
    };
    *buf = rest;
    Ok(field)
}

/// The next `N` bytes of `buf`, advancing past them.
#[inline(always)]
fn take<'a, const N: usize>(buf: &mut &'a [u8]) -> StorageResult<&'a [u8; N]> {
    let (head, rest) = buf.split_first_chunk().ok_or_else(|| short(N, buf.len()))?;
    *buf = rest;
    Ok(head)
}

/// The next `n` bytes of `buf`, advancing past them.
#[inline(always)]
fn take_slice<'a>(buf: &mut &'a [u8], n: usize) -> StorageResult<&'a [u8]> {
    if buf.len() < n {
        return Err(short(n, buf.len()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// `N` little-endian `f64`s.
#[inline(always)]
fn take_f64s<const N: usize>(buf: &mut &[u8]) -> StorageResult<[f64; N]> {
    let bytes = take_slice(buf, N * 8)?;
    Ok(std::array::from_fn(|i| {
        f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
    }))
}

#[cold]
fn short(n: usize, left: usize) -> StorageError {
    StorageError::Corrupt(format!("field needs {n} bytes, {left} left"))
}

#[cold]
fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(msg.to_string())
}

/// Encode a whole record (field count, then fields).
pub fn encode_record(fields: &[Field]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * fields.len() + 2);
    out.put_u16_le(fields.len() as u16);
    for f in fields {
        f.encode(&mut out);
    }
    out
}

/// Decode a whole record produced by [`encode_record`].
pub fn decode_record(buf: &[u8]) -> StorageResult<Vec<Field>> {
    decode_record_map(buf, |f| f)
}

/// Decode a whole record, converting each field through `conv` as it is
/// decoded. The execution layer decodes straight into its own value
/// representation this way, without materializing an intermediate
/// `Vec<Field>` per record.
pub fn decode_record_map<T>(
    mut buf: &[u8],
    mut conv: impl FnMut(Field) -> T,
) -> StorageResult<Vec<T>> {
    if buf.len() < 2 {
        return Err(StorageError::Corrupt("record shorter than header".into()));
    }
    let n = buf.get_u16_le() as usize;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        fields.push(conv(Field::decode(&mut buf)?));
    }
    if !buf.is_empty() {
        return Err(StorageError::Corrupt("trailing bytes after record".into()));
    }
    Ok(fields)
}

/// Decode a whole record directly into a shared slice: the exact-size
/// field count from the header drives a `TrustedLen` collect, so the
/// record costs a single allocation. `placeholder` fills the remaining
/// slots once a field fails to decode (the error is returned, the
/// slice discarded).
pub fn decode_record_shared<T>(
    mut buf: &[u8],
    mut conv: impl FnMut(Field) -> T,
    placeholder: impl Fn() -> T,
) -> StorageResult<std::rc::Rc<[T]>> {
    if buf.len() < 2 {
        return Err(StorageError::Corrupt("record shorter than header".into()));
    }
    let n = buf.get_u16_le() as usize;
    let mut err = None;
    let fields: std::rc::Rc<[T]> = (0..n)
        .map(|_| {
            if err.is_some() {
                return placeholder();
            }
            match Field::decode(&mut buf) {
                Ok(f) => conv(f),
                Err(e) => {
                    err = Some(e);
                    placeholder()
                }
            }
        })
        .collect();
    if let Some(e) = err {
        return Err(e);
    }
    if !buf.is_empty() {
        return Err(StorageError::Corrupt("trailing bytes after record".into()));
    }
    Ok(fields)
}

/// Field offsets a [`RecordView`] keeps inline; fields past these are
/// found by skipping forward from the last kept one.
const VIEW_OFFSETS: usize = 8;

/// A record read in place: built by checking the whole record once,
/// without allocating, so that a scan can test a predicate on a field
/// and decode only the records that pass.
///
/// [`RecordView::new`] fails exactly where [`decode_record_shared`]
/// fails, with the same error (header, tags, lengths, UTF-8, polygon
/// arity, trailing bytes): both check fields through the same parser.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    buf: &'a [u8],
    len: usize,
    offsets: [u32; VIEW_OFFSETS],
}

impl<'a> RecordView<'a> {
    /// Check `buf` as a record produced by [`encode_record`].
    pub fn new(buf: &'a [u8]) -> StorageResult<RecordView<'a>> {
        if buf.len() < 2 {
            return Err(StorageError::Corrupt("record shorter than header".into()));
        }
        let len = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        let mut offsets = [0u32; VIEW_OFFSETS];
        let mut rest = &buf[2..];
        for i in 0..len {
            if let Some(at) = offsets.get_mut(i) {
                *at = (buf.len() - rest.len()) as u32;
            }
            read_field(&mut rest)?;
        }
        if !rest.is_empty() {
            return Err(StorageError::Corrupt("trailing bytes after record".into()));
        }
        Ok(RecordView { buf, len, offsets })
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of field `i` onward (tag first), or `None` past the end.
    fn at(&self, i: usize) -> Option<&'a [u8]> {
        if i >= self.len {
            return None;
        }
        let kept = i.min(VIEW_OFFSETS - 1);
        let mut rest = &self.buf[self.offsets[kept] as usize..];
        for _ in kept..i {
            read_field(&mut rest).ok()?;
        }
        Some(rest)
    }

    /// Field `i`, read in place.
    pub fn get(&self, i: usize) -> Option<FieldRef<'a>> {
        read_field(&mut self.at(i)?).ok()
    }

    /// Field `i` if it is an int.
    pub fn int(&self, i: usize) -> Option<i64> {
        match self.at(i)? {
            [TAG_INT, rest @ ..] => Some(i64::from_le_bytes(rest[..8].try_into().ok()?)),
            _ => None,
        }
    }

    /// Field `i` if it is a real.
    pub fn real(&self, i: usize) -> Option<f64> {
        match self.at(i)? {
            [TAG_REAL, rest @ ..] => Some(f64::from_le_bytes(rest[..8].try_into().ok()?)),
            _ => None,
        }
    }

    /// Field `i` if it is a bool.
    pub fn bool(&self, i: usize) -> Option<bool> {
        match self.at(i)? {
            [TAG_BOOL, b, ..] => Some(*b != 0),
            _ => None,
        }
    }

    /// Decode every field, converting each through `conv`, into one
    /// shared slice (one allocation).
    pub fn decode<T>(&self, mut conv: impl FnMut(FieldRef<'a>) -> T) -> std::rc::Rc<[T]> {
        let mut rest = &self.buf[2..];
        (0..self.len)
            .map(|_| conv(read_field(&mut rest).expect("fields were checked by RecordView::new")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(fields: Vec<Field>) {
        let enc = encode_record(&fields);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(fields, dec);
    }

    #[test]
    fn roundtrips_every_field_kind() {
        roundtrip(vec![
            Field::Int(-42),
            Field::Real(3.5),
            Field::Str("München".into()),
            Field::Bool(true),
            Field::Point(Point::new(1.0, 2.0)),
            Field::Rect(Rect::new(0.0, 0.0, 5.0, 5.0)),
            Field::Pgon(Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(0.0, 1.0),
            ])),
        ]);
    }

    #[test]
    fn roundtrips_empty_record_and_empty_string() {
        roundtrip(vec![]);
        roundtrip(vec![Field::Str(String::new())]);
    }

    #[test]
    fn rejects_truncated_record() {
        let enc = encode_record(&[Field::Int(7), Field::Str("abc".into())]);
        for cut in 1..enc.len() {
            assert!(
                decode_record(&enc[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut enc = encode_record(&[Field::Bool(false)]);
        enc.push(0xAB);
        assert!(decode_record(&enc).is_err());
    }

    #[test]
    fn rejects_unknown_tag() {
        let buf = [1u8, 0u8, 200u8];
        assert!(decode_record(&buf).is_err());
    }
}
