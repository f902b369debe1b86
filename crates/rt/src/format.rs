//! Java-style textual formatting of primitive values, shared by the
//! print intrinsics and `String.valueOf` so both engines print
//! identically.

/// Formats an `int` like Java.
pub fn fmt_int(v: i32) -> String {
    v.to_string()
}

/// Formats a `long` like Java (no suffix).
pub fn fmt_long(v: i64) -> String {
    v.to_string()
}

/// Formats a `boolean` like Java.
pub fn fmt_bool(v: bool) -> String {
    v.to_string()
}

/// Formats a `char` like Java (the raw character).
pub fn fmt_char(v: u16) -> String {
    char::from_u32(v as u32).unwrap_or('\u{FFFD}').to_string()
}

/// Formats a `double` approximating `Double.toString`: integral values
/// keep a trailing `.0`, NaN/infinities use Java spellings. (Exact
/// shortest-repr digits differ from the JLS in corner cases; the
/// differential tests only compare engine-vs-engine, where this is
/// shared.)
pub fn fmt_double(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "Infinity" } else { "-Infinity" }.to_string();
    }
    if v == v.trunc() && v.abs() < 1e16 {
        // Integral: Java prints "4.0".
        let mut s = format!("{v:.1}");
        if s == "-0.0" && v.is_sign_negative() {
            // keep Java's -0.0
        } else if v == 0.0 && v.is_sign_negative() {
            s = "-0.0".to_string();
        }
        s
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_and_longs() {
        assert_eq!(fmt_int(-42), "-42");
        assert_eq!(fmt_long(1i64 << 40), "1099511627776");
    }

    #[test]
    fn doubles_keep_point_zero() {
        assert_eq!(fmt_double(4.0), "4.0");
        assert_eq!(fmt_double(-0.5), "-0.5");
        assert_eq!(fmt_double(f64::NAN), "NaN");
        assert_eq!(fmt_double(f64::INFINITY), "Infinity");
        assert_eq!(fmt_double(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(fmt_double(-0.0), "-0.0");
    }

    #[test]
    fn chars() {
        assert_eq!(fmt_char(b'x' as u16), "x");
        assert_eq!(fmt_bool(true), "true");
    }
}
