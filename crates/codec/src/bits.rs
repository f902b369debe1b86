//! Bit-level I/O and the paper's "simple prefix encoding".
//!
//! Every symbol of the SafeTSA stream is "chosen from a finite set
//! determined only by the preceding context" (§7); with fixed equal
//! probabilities the optimal prefix code is ⌈log₂ n⌉ bits per symbol,
//! which is what [`BitWriter::symbol`] emits. A set with one element
//! costs zero bits — references to the only value on a plane are free.
//! Unbounded counts use Elias gamma codes.

use std::fmt;

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended inside a symbol.
    UnexpectedEof,
    /// A symbol value reached the reader that exceeds its cardinality
    /// (impossible for ⌈log₂ n⌉ codes unless n is not a power of two
    /// and the top code points are unused — the check is the "trivial"
    /// r-bound verification of §2).
    SymbolOutOfRange {
        /// Decoded value.
        value: u32,
        /// Permitted cardinality.
        card: u32,
    },
    /// Structural validation failed during decoding.
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of stream"),
            DecodeError::SymbolOutOfRange { value, card } => {
                write!(f, "symbol {value} out of range (cardinality {card})")
            }
            DecodeError::Malformed(s) => write!(f, "malformed stream: {s}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Number of bits needed for a symbol out of `card` alternatives.
pub fn bits_for(card: u32) -> u32 {
    if card <= 1 {
        0
    } else {
        32 - (card - 1).leading_zeros()
    }
}

/// A growable bit sink.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the last byte (0 = byte boundary).
    bit_pos: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n` bits of `v`, most significant first.
    pub fn bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || v < (1u64 << n));
        for i in (0..n).rev() {
            let bit = (v >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= (bit as u8) << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }

    /// Emits `v` as a symbol out of `card` alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `v >= card` (an encoder bug).
    pub fn symbol(&mut self, v: u32, card: u32) {
        assert!(v < card.max(1), "symbol {v} out of cardinality {card}");
        self.bits(v as u64, bits_for(card));
    }

    /// Elias gamma code for an unbounded count (`v ≥ 0`).
    pub fn gamma(&mut self, v: u64) {
        let x = v + 1;
        let n = 63 - x.leading_zeros() as u64;
        self.bits(0, n as u32);
        self.bits(1, 1);
        self.bits(x & ((1u64 << n) - 1), n as u32);
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.gamma(s.len() as u64);
        for b in s.bytes() {
            self.bits(b as u64, 8);
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8
            - if self.bit_pos == 0 {
                0
            } else {
                (8 - self.bit_pos) as usize
            }
    }

    /// Finishes and returns the byte buffer (zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A bit source over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `n` bits, most significant first.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] when the stream is exhausted.
    pub fn bits(&mut self, n: u32) -> Result<u64, DecodeError> {
        debug_assert!(n <= 64);
        if n as usize > self.remaining_bits() {
            return Err(DecodeError::UnexpectedEof);
        }
        // Up to one byte per step: the rest of the current byte, or as
        // much of it as `n` still needs.
        let mut v = 0u64;
        let mut left = n;
        while left > 0 {
            let avail = 8 - (self.pos % 8) as u32;
            let take = avail.min(left);
            let chunk = (self.bytes[self.pos / 8] >> (avail - take)) & (0xFF >> (8 - take));
            v = (v << take) | u64::from(chunk);
            self.pos += take as usize;
            left -= take;
        }
        Ok(v)
    }

    /// Bits left in the stream. A count read from the wire can promise
    /// at most this many items of one bit or more, which bounds what a
    /// decoder may reserve for them up front.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Reads a symbol out of `card` alternatives, enforcing the range.
    ///
    /// # Errors
    ///
    /// EOF or [`DecodeError::SymbolOutOfRange`].
    pub fn symbol(&mut self, card: u32) -> Result<u32, DecodeError> {
        if card == 0 {
            return Err(DecodeError::Malformed(
                "reference into an empty register set".into(),
            ));
        }
        let v = self.bits(bits_for(card))? as u32;
        if v >= card {
            return Err(DecodeError::SymbolOutOfRange { value: v, card });
        }
        Ok(v)
    }

    /// Reads an Elias gamma code.
    ///
    /// # Errors
    ///
    /// EOF, or malformed codes longer than 63 bits.
    pub fn gamma(&mut self) -> Result<u64, DecodeError> {
        let mut n = 0u32;
        loop {
            if self.bits(1)? == 1 {
                break;
            }
            n += 1;
            if n > 63 {
                return Err(DecodeError::Malformed("gamma code too long".into()));
            }
        }
        let rest = self.bits(n)?;
        Ok(((1u64 << n) | rest) - 1)
    }

    /// Reads a length-prefixed UTF-8 string (capped at 1 MiB).
    ///
    /// # Errors
    ///
    /// EOF, oversized lengths, or invalid UTF-8.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.gamma()?;
        if len > 1 << 20 {
            return Err(DecodeError::Malformed("string too long".into()));
        }
        let mut out = Vec::with_capacity((len as usize).min(self.remaining_bits() / 8));
        for _ in 0..len {
            out.push(self.bits(8)? as u8);
        }
        String::from_utf8(out).map_err(|_| DecodeError::Malformed("invalid UTF-8".into()))
    }

    /// Current bit position (diagnostics).
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        let mut w = BitWriter::new();
        w.bits(0b1011, 4);
        w.bits(0xFF, 8);
        w.bits(0, 1);
        w.bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(4).unwrap(), 0b1011);
        assert_eq!(r.bits(8).unwrap(), 0xFF);
        assert_eq!(r.bits(1).unwrap(), 0);
        assert_eq!(r.bits(1).unwrap(), 1);
    }

    #[test]
    fn symbol_costs() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn singleton_symbols_are_free() {
        let mut w = BitWriter::new();
        for _ in 0..1000 {
            w.symbol(0, 1);
        }
        assert_eq!(w.bit_len(), 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for _ in 0..1000 {
            assert_eq!(r.symbol(1).unwrap(), 0);
        }
    }

    #[test]
    fn symbol_range_enforced() {
        let mut w = BitWriter::new();
        w.symbol(2, 3); // 2 bits; value 3 would be out of range
        w.bits(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.symbol(3).unwrap(), 2);
        assert_eq!(
            r.symbol(3),
            Err(DecodeError::SymbolOutOfRange { value: 3, card: 3 })
        );
    }

    #[test]
    fn gamma_round_trip() {
        let mut w = BitWriter::new();
        let values = [0u64, 1, 2, 3, 7, 8, 100, 1 << 20, u32::MAX as u64];
        for &v in &values {
            w.gamma(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.gamma().unwrap(), v);
        }
    }

    #[test]
    fn string_round_trip() {
        let mut w = BitWriter::new();
        w.string("hello κόσμος");
        w.string("");
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.string().unwrap(), "hello κόσμος");
        assert_eq!(r.string().unwrap(), "");
    }

    #[test]
    fn eof_detection() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        assert!(r.bits(8).is_ok());
        assert_eq!(r.bits(1), Err(DecodeError::UnexpectedEof));
    }
}
