//! A minimal arbitrary-precision unsigned integer.
//!
//! The §III-E complexity bounds (`2^{k·u}` dscenarios for a 100-node
//! network) overflow every machine word; no bignum crate is on the
//! approved dependency list, so this module provides the handful of exact
//! operations [`complexity`](crate::complexity) needs: addition,
//! subtraction, multiplication, small division, exponentiation,
//! comparison and decimal formatting.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian base-2⁶⁴ limbs).
///
/// # Examples
///
/// ```
/// use sde_core::BigUint;
///
/// let two = BigUint::from(2u64);
/// let big = two.pow(1000);
/// assert_eq!(big.to_string().len(), 302); // 2^1000 has 302 decimal digits
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limbs (zero = empty).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> BigUint {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> BigUint {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn trim(mut limbs: Vec<u64>) -> BigUint {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint::trim(out)
    }

    /// `self − other`.
    ///
    /// # Panics
    ///
    /// Panics when `other > self` (unsigned subtraction cannot borrow).
    #[must_use]
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::trim(out)
    }

    /// `self × other` (schoolbook).
    #[must_use]
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(a) * u128::from(b) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::trim(out)
    }

    /// `(self / divisor, self % divisor)` for a small divisor.
    ///
    /// # Panics
    ///
    /// Panics when `divisor` is zero.
    pub fn div_rem_small(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | u128::from(self.limbs[i]);
            out[i] = (cur / u128::from(divisor)) as u64;
            rem = cur % u128::from(divisor);
        }
        (BigUint::trim(out), rem as u64)
    }

    /// `self ^ exp` by square-and-multiply.
    #[must_use]
    pub fn pow(&self, mut exp: u64) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// Number of bits in the value (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() as u64 - 1) * 64 + (64 - u64::from(top.leading_zeros())),
        }
    }

    /// The value as `u128`, when it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u128::from(self.limbs[0])),
            2 => Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64)),
            _ => None,
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> BigUint {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> BigUint {
        BigUint::trim(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut value = self.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !value.is_zero() {
            let (q, r) = value.div_rem_small(CHUNK);
            chunks.push(r);
            value = q;
        }
        let mut s = chunks.pop().map(|c| c.to_string()).unwrap_or_default();
        for c in chunks.into_iter().rev() {
            s.push_str(&format!("{c:019}"));
        }
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (u64::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (
                123456789012345678901234567890u128,
                987654321098765432109876543210u128 / 3,
            ),
        ];
        for (a, b) in cases {
            let (ba, bb) = (BigUint::from(a), BigUint::from(b));
            assert_eq!(ba.add(&bb).to_u128(), a.checked_add(b));
            if a >= b {
                assert_eq!(ba.sub(&bb).to_u128(), Some(a - b));
            }
            assert_eq!(ba.mul(&bb).to_u128(), a.checked_mul(b));
        }
    }

    #[test]
    fn display_matches_u128() {
        for v in [0u128, 7, 10_000_000_000_000_000_000, u128::MAX] {
            assert_eq!(BigUint::from(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn pow_and_bits() {
        let two = BigUint::from(2u64);
        assert_eq!(two.pow(0), BigUint::one());
        assert_eq!(two.pow(10).to_u128(), Some(1024));
        assert_eq!(two.pow(100).bits(), 101);
        // 2^64 as string
        assert_eq!(two.pow(64).to_string(), "18446744073709551616");
        // (2^64)^2 == 2^128
        assert_eq!(two.pow(64).mul(&two.pow(64)), two.pow(128));
    }

    #[test]
    fn div_rem_small_roundtrip() {
        let v = BigUint::from(2u64).pow(200);
        let (q, r) = v.div_rem_small(7);
        assert_eq!(q.mul(&BigUint::from(7u64)).add(&BigUint::from(r)), v);
        let (q10, r10) = BigUint::from(1234u64).div_rem_small(10);
        assert_eq!(q10.to_u128(), Some(123));
        assert_eq!(r10, 4);
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(2u64).pow(100);
        let b = BigUint::from(2u64).pow(101);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
        assert!(BigUint::zero() < BigUint::one());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&BigUint::from(2u64));
    }
}
