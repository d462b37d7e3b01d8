//! Exact arithmetic for power towers `2^2^…^2^v`.
//!
//! Theorem 4's bookkeeping manipulates numbers like
//! `k₁ = F⁵(2) = 2^2^2^65536` that no bignum can materialize. [`Tower`]
//! represents exactly the values `2↑ʰ v` (h iterated powers of two on top
//! of a `u128`), which is closed under the paper's `F(x) = 2^x` and admits
//! exact comparison, log₂, and log*.

use std::cmp::Ordering;
use std::fmt;

/// The exact value `2^(2^(…^(2^top)))` with `height` iterated exponentials.
///
/// Normal form: if `height > 0`, then `top ≥ 128` or the value would fit in
/// the `u128` top (normalization folds `2^top` into `top` while it fits).
/// This makes comparison exact and cheap.
///
/// ```
/// use roundelim_superweak::tower::Tower;
/// let x = Tower::from_u128(65536);
/// let y = x.pow2().pow2(); // 2^2^65536
/// assert!(y > Tower::from_u128(u128::MAX));
/// assert_eq!(y.log2().unwrap(), x.pow2());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tower {
    height: u32,
    top: u128,
}

impl Tower {
    /// A plain number.
    pub fn from_u128(v: u128) -> Tower {
        Tower { height: 0, top: v }
    }

    /// The tower `2↑↑h` with `h` twos (e.g. `tower_of_twos(3) = 16`).
    pub fn tower_of_twos(h: u32) -> Tower {
        let mut t = Tower::from_u128(1);
        for _ in 0..h {
            t = t.pow2();
        }
        t
    }

    /// The paper's `F(x) = 2^x`, exactly.
    #[must_use]
    pub fn pow2(&self) -> Tower {
        if self.height == 0 && self.top <= 127 {
            Tower { height: 0, top: 1u128 << self.top }
        } else {
            Tower { height: self.height + 1, top: self.top }
        }
    }

    /// `F` applied `n` times.
    #[must_use]
    pub fn pow2_iter(&self, n: u32) -> Tower {
        let mut t = self.clone();
        for _ in 0..n {
            t = t.pow2();
        }
        t
    }

    /// Exact `log₂` when the value is a represented power of two
    /// (`height ≥ 1`), `floor(log₂)` for plain numbers ≥ 1, `None` for 0.
    pub fn log2(&self) -> Option<Tower> {
        if self.height >= 1 {
            Some(Tower { height: self.height - 1, top: self.top })
        } else if self.top == 0 {
            None
        } else {
            Some(Tower::from_u128(127 - self.top.leading_zeros() as u128))
        }
    }

    /// `log*`: the number of `log₂` applications needed to reach a value
    /// ≤ 1. Uses floor-log₂ at the numeric bottom, which is the standard
    /// convention (log* is insensitive to constant-factor slack).
    pub fn log_star(&self) -> u32 {
        let mut count = self.height;
        let mut v = self.top;
        while v > 1 {
            v = 127 - v.leading_zeros() as u128;
            count += 1;
        }
        count
    }

    /// Whether the value fits in a `u128`, and its value if so.
    pub fn as_u128(&self) -> Option<u128> {
        if self.height == 0 {
            Some(self.top)
        } else {
            None
        }
    }

    /// Checked addition of a small constant; only exact (hence only
    /// available) for plain numbers.
    pub fn checked_add(&self, c: u128) -> Option<Tower> {
        if self.height == 0 {
            self.top.checked_add(c).map(Tower::from_u128)
        } else {
            None
        }
    }

    /// Checked multiplication by a small constant; only for plain numbers.
    pub fn checked_mul(&self, c: u128) -> Option<Tower> {
        if self.height == 0 {
            self.top.checked_mul(c).map(Tower::from_u128)
        } else {
            None
        }
    }
}

impl PartialOrd for Tower {
    fn partial_cmp(&self, other: &Tower) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tower {
    fn cmp(&self, other: &Tower) -> Ordering {
        // Both in normal form: if heights differ, the taller is larger —
        // its top exceeds 127, so after stripping the shorter height the
        // taller side is ≥ 2^128 > u128 ≥ the numeric side.
        match self.height.cmp(&other.height) {
            Ordering::Equal => self.top.cmp(&other.top),
            Ordering::Less => {
                // self numeric-ish vs taller tower: taller wins unless it
                // degenerates — normal form prevents that.
                Ordering::Less
            }
            Ordering::Greater => Ordering::Greater,
        }
    }
}

impl fmt::Display for Tower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for _ in 0..self.height {
            write!(f, "2^")?;
        }
        write!(f, "{}", self.top)
    }
}

impl From<u128> for Tower {
    fn from(v: u128) -> Tower {
        Tower::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_folds_small_values() {
        let t = Tower::from_u128(4).pow2();
        assert_eq!(t.as_u128(), Some(16));
        let t = Tower::from_u128(127).pow2();
        assert_eq!(t.as_u128(), Some(1 << 127));
        let t = Tower::from_u128(128).pow2();
        assert_eq!(t.as_u128(), None);
        assert_eq!(t.height, 1);
    }

    #[test]
    fn ordering_is_exact() {
        let a = Tower::from_u128(u128::MAX);
        let b = Tower::from_u128(128).pow2(); // 2^128 > u128::MAX
        assert!(b > a);
        let c = Tower::from_u128(200).pow2();
        assert!(c > b);
        let d = b.pow2(); // 2^2^128
        assert!(d > c);
        assert_eq!(b.cmp(&b), Ordering::Equal);
    }

    #[test]
    fn tower_of_twos_values() {
        assert_eq!(Tower::tower_of_twos(0).as_u128(), Some(1));
        assert_eq!(Tower::tower_of_twos(1).as_u128(), Some(2));
        assert_eq!(Tower::tower_of_twos(4).as_u128(), Some(65536));
        let t5 = Tower::tower_of_twos(5); // 2^65536
        assert_eq!(t5.as_u128(), None);
        assert_eq!(t5.height, 1);
    }

    #[test]
    fn log2_inverts_pow2() {
        let x = Tower::from_u128(65536);
        let y = x.pow2().pow2();
        assert_eq!(y.log2().unwrap(), x.pow2());
        assert_eq!(y.log2().unwrap().log2().unwrap(), x);
        // floor log2 on plain numbers
        assert_eq!(Tower::from_u128(1000).log2().unwrap().as_u128(), Some(9));
        assert!(Tower::from_u128(0).log2().is_none());
    }

    #[test]
    fn log_star_values() {
        // 65536 → 16 → 4 → 2 → 1: 4 applications.
        assert_eq!(Tower::from_u128(65536).log_star(), 4);
        assert_eq!(Tower::from_u128(2).log_star(), 1);
        assert_eq!(Tower::from_u128(1).log_star(), 0);
        // 2^65536: one more.
        assert_eq!(Tower::tower_of_twos(5).log_star(), 5);
        assert_eq!(Tower::tower_of_twos(9).log_star(), 9);
    }

    #[test]
    fn checked_ops_numeric_only() {
        assert_eq!(Tower::from_u128(4).checked_add(1).unwrap().as_u128(), Some(5));
        assert!(Tower::tower_of_twos(5).checked_add(1).is_none());
        assert_eq!(Tower::from_u128(4).checked_mul(4).unwrap().as_u128(), Some(16));
    }

    #[test]
    fn display_shape() {
        assert_eq!(Tower::from_u128(7).to_string(), "7");
        assert_eq!(Tower::tower_of_twos(5).to_string(), "2^65536");
        assert_eq!(Tower::tower_of_twos(6).to_string(), "2^2^65536");
    }
}
