//! Arbitrary-precision unsigned (and minimally signed) integer arithmetic.
//!
//! Just enough number theory for RSA: schoolbook multiplication, Knuth
//! Algorithm D division, fixed-width Montgomery modular exponentiation,
//! Miller–Rabin primality testing and modular inverses via the extended
//! Euclidean algorithm.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limbs
//! (the canonical form of zero is an empty limb vector).

use std::cmp::Ordering;

/// Source of randomness for prime generation and Miller–Rabin bases.
///
/// Defined here (rather than depending on an RNG crate) so the simulator's
/// deterministic PRNG can drive key generation reproducibly.
pub trait Rng64 {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A small, fast, deterministic PRNG (SplitMix64) adequate for generating
/// *test* RSA keys reproducibly. Not a CSPRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zeros.
    limbs: Vec<u64>,
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.limbs.is_empty() {
            write!(f, "0")?;
        } else {
            for (i, l) in self.limbs.iter().rev().enumerate() {
                if i == 0 {
                    write!(f, "{l:x}")?;
                } else {
                    write!(f, "{l:016x}")?;
                }
            }
        }
        write!(f, ")")
    }
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From big-endian bytes (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// To big-endian bytes with no leading zeros (zero encodes as empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.limbs.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        let mut iter = self.limbs.iter().rev();
        let top = iter.next().unwrap();
        let top_bytes = top.to_be_bytes();
        let skip = top.leading_zeros() as usize / 8;
        out.extend_from_slice(&top_bytes[skip..]);
        for limb in iter {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// To exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit (used by RSA I2OSP).
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True if zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Test bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Value as `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let a = limb as u128;
            let b = *short.get(i).unwrap_or(&0) as u128;
            let sum = a + b + carry as u128;
            out.push(sum as u64);
            carry = (sum >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, o1) = a.overflowing_sub(b);
            let (d2, o2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (o1 | o2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Compare.
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift right by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder: `(self / divisor, self % divisor)`.
    ///
    /// Knuth TAOCP vol. 2 Algorithm 4.3.1 D with 64-bit limbs.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        // Single-limb divisor: simple long division.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        let n = v.len();
        // Ensure u has at least n+1 limbs and one extra headroom limb.
        u.push(0);
        let m = u.len() - n - 1;
        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;

        for j in (0..=m).rev() {
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = num / v[n - 1] as u128;
            let mut rhat = num % v[n - 1] as u128;
            // Refine the 2-limb estimate against the next limb (D3).
            while qhat >= b || qhat * v[n - 2] as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }
            // D4: multiply and subtract u[j..=j+n] -= qhat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let sub = (p as u64) as i128;
                let cur = u[j + i] as i128 - sub + borrow;
                if cur < 0 {
                    u[j + i] = (cur + (1i128 << 64)) as u64;
                    borrow = -1;
                } else {
                    u[j + i] = cur as u64;
                    borrow = 0;
                }
            }
            let cur = u[j + n] as i128 - carry as i128 + borrow;
            if cur < 0 {
                // D6: estimate was one too large; add back.
                u[j + n] = (cur + (1i128 << 64)) as u64;
                qhat -= 1;
                let mut carry2 = 0u128;
                for i in 0..n {
                    let sum = u[j + i] as u128 + v[i] as u128 + carry2;
                    u[j + i] = sum as u64;
                    carry2 = sum >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u64);
            } else {
                u[j + n] = cur as u64;
            }
            q[j] = qhat as u64;
        }

        let mut qn = BigUint { limbs: q };
        qn.normalize();
        let mut rem = BigUint {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        (qn, rem.shr(shift))
    }

    /// `self % m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `(self * other) % m`.
    pub fn mulmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli of up to 4,096 bits — the RSA sign/verify and
    /// Miller–Rabin case — go through the fixed-width Montgomery
    /// sliding-window ladder ([`Montgomery`]), which replaces every
    /// schoolbook multiply-then-divide step with one product and one
    /// reduction pass on stack arrays. Even and wider moduli keep the
    /// plain square-and-multiply path. Both paths return identical
    /// values for identical inputs.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.limbs == [1] {
            return BigUint::zero();
        }
        if let Some(mont) = Montgomery::new(m) {
            return mont.modpow(self, exp);
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        let bits = exp.bit_len();
        for i in 0..bits {
            if exp.bit(i) {
                result = result.mulmod(&base, m);
            }
            if i + 1 < bits {
                base = base.mulmod(&base, m);
            }
        }
        result
    }

    /// Greatest common divisor (binary-free, Euclid via div_rem).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` mod `m`, if it exists.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() {
            return None;
        }
        // Extended Euclid tracking only the coefficient of `self`.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = SignedBig::zero();
        let mut t1 = SignedBig::from_biguint(BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            let t2 = t0.sub(&t1.mul_biguint(&q));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return None;
        }
        Some(t0.rem_euclid(m))
    }

    /// Uniform random value with exactly `bits` significant bits
    /// (top bit forced to 1).
    pub fn random_bits(bits: usize, rng: &mut dyn Rng64) -> BigUint {
        assert!(bits > 0);
        let limbs_needed = bits.div_ceil(64);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.next_u64());
        }
        // Mask off excess bits, set the top bit.
        let top_bits = bits - (limbs_needed - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        let last = limbs.last_mut().unwrap();
        *last &= mask;
        *last |= 1u64 << (top_bits - 1);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Uniform random value in `[0, bound)` by rejection sampling.
    pub fn random_below(bound: &BigUint, rng: &mut dyn Rng64) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bit_len();
        let limbs_needed = bits.div_ceil(64);
        let top_bits = bits - (limbs_needed - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut limbs = Vec::with_capacity(limbs_needed);
            for _ in 0..limbs_needed {
                limbs.push(rng.next_u64());
            }
            *limbs.last_mut().unwrap() &= mask;
            let mut n = BigUint { limbs };
            n.normalize();
            if n.cmp_big(bound) == Ordering::Less {
                return n;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime(&self, rounds: usize, rng: &mut dyn Rng64) -> bool {
        if self.is_zero() {
            return false;
        }
        if let Some(v) = self.to_u64() {
            if v < 2 {
                return false;
            }
            if v == 2 || v == 3 {
                return true;
            }
        }
        if !self.is_odd() {
            return false;
        }
        // Trial division by small primes.
        for &p in SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            if self.cmp_big(&pb) == Ordering::Equal {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        // Write self-1 = d * 2^s.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut s = 0usize;
        let mut d = n_minus_1.clone();
        while !d.is_odd() {
            d = d.shr(1);
            s += 1;
        }
        let two = BigUint::from_u64(2);
        let n_minus_3 = self.sub(&BigUint::from_u64(3));
        // One Montgomery context serves every witness.
        let mont = Montgomery::new(self);
        'witness: for _ in 0..rounds {
            // a in [2, n-2]
            let a = BigUint::random_below(&n_minus_3, rng).add(&two);
            let mut x = match &mont {
                Some(mont) => mont.modpow(&a, &d),
                None => a.modpow(&d, self),
            };
            if x == BigUint::one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.mulmod(&x, self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn gen_prime(bits: usize, rng: &mut dyn Rng64) -> BigUint {
        assert!(bits >= 4, "prime too small");
        loop {
            let mut candidate = BigUint::random_bits(bits, rng);
            // Force odd.
            if !candidate.is_odd() {
                candidate = candidate.add(&BigUint::one());
                if candidate.bit_len() != bits {
                    continue;
                }
            }
            if candidate.is_probable_prime(24, rng) {
                return candidate;
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

/// Limb counts the Montgomery engine is instantiated at. A modulus is
/// padded with zero limbs up to the next one: Montgomery reduction needs
/// only `m` odd and `m < R`, so a zero top limb is harmless. 64 limbs
/// (4,096 bits) covers every DKIM key size RFC 8301 allows.
const MONT_WIDTHS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Largest sliding-window width; the table holds `2^(w−1)` odd powers.
const MAX_WINDOW: usize = 6;

/// Sliding-window width for an exponent of `bits` bits — OpenSSL's
/// `BN_window_bits_for_exponent_size` rule. e = 65537 gets width 1
/// (16 squarings and one multiply); a 512-bit CRT exponent gets 5.
fn window_bits(bits: usize) -> usize {
    match bits {
        672.. => 6,
        240.. => 5,
        80.. => 4,
        24.. => 3,
        _ => 1,
    }
}

/// Montgomery-reduction context for one odd modulus of at most 64 limbs.
///
/// Holds `m`, `−m⁻¹ mod 2⁶⁴` and `R² mod m` with `R = 2^(64·width)`,
/// where `width` is `m`'s limb count rounded up to [`MONT_WIDTHS`].
/// Building one costs a Knuth division, so long-lived moduli (RSA
/// primes) keep theirs. [`Montgomery::modpow`] dispatches to the
/// fixed-width engine ([`Fixed`]), whose residues are `[u64; N]` stack
/// arrays, so the exponentiation ladder never touches the heap. Every
/// value it produces is identical to the schoolbook path's — Montgomery
/// form only changes the representation between entry and exit.
#[derive(Debug, Clone)]
pub(crate) struct Montgomery {
    /// The modulus (odd, ≥ 3).
    m: BigUint,
    /// Padded limb count, one of [`MONT_WIDTHS`].
    width: usize,
    /// `−m⁻¹ mod 2⁶⁴`.
    n0inv: u64,
    /// `R² mod m`: a Montgomery product with it converts a plain
    /// residue into Montgomery form.
    rr: BigUint,
}

impl Montgomery {
    /// The context for `m`, or `None` when `m` is even, below 3 or wider
    /// than 4,096 bits (those take the plain `mulmod` path).
    pub(crate) fn new(m: &BigUint) -> Option<Montgomery> {
        if !m.is_odd() || m.limbs == [1] {
            return None;
        }
        let width = *MONT_WIDTHS.iter().find(|&&w| w >= m.limbs.len())?;
        // Newton–Hensel iteration: each step doubles the number of
        // correct low bits of m₀⁻¹ mod 2^64 (seeding with m₀ gives 3).
        let m0 = m.limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        Some(Montgomery {
            m: m.clone(),
            width,
            n0inv: inv.wrapping_neg(),
            rr: BigUint::one().shl(128 * width).rem(m),
        })
    }

    /// The modulus `m`.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.m
    }

    /// `base^exp mod m`.
    pub(crate) fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match self.width {
            2 => self.modpow_fixed::<2>(base, exp),
            4 => self.modpow_fixed::<4>(base, exp),
            8 => self.modpow_fixed::<8>(base, exp),
            16 => self.modpow_fixed::<16>(base, exp),
            32 => self.modpow_fixed::<32>(base, exp),
            64 => self.modpow_fixed::<64>(base, exp),
            w => unreachable!("Montgomery::new pads to a supported width, not {w}"),
        }
    }

    fn modpow_fixed<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let f = Fixed::<N> {
            m: to_limbs(&self.m),
            n0inv: self.n0inv,
        };
        let b = f.mul(&to_limbs(&base.rem(&self.m)), &to_limbs(&self.rr));
        let acc = f.pow(&b, exp);
        let mut out = BigUint {
            limbs: f.redc([acc, [0; N]]).to_vec(),
        };
        out.normalize();
        out
    }
}

/// `x`'s limbs zero-padded to `N`; `x` must fit.
fn to_limbs<const N: usize>(x: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    out[..x.limbs.len()].copy_from_slice(&x.limbs);
    out
}

/// The fixed-width engine: a modulus padded to `N` limbs. Every residue,
/// product and reduction lives in a stack array.
struct Fixed<const N: usize> {
    m: [u64; N],
    n0inv: u64,
}

impl<const N: usize> Fixed<N> {
    /// Montgomery product `a·b·R⁻¹ mod m`: the full `2N`-limb product,
    /// then one reduction pass.
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut wide = [[0u64; N]; 2];
        let t = wide.as_flattened_mut();
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &bj) in b.iter().enumerate() {
                let acc = t[i + j] as u128 + ai as u128 * bj as u128 + carry as u128;
                t[i + j] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            t[i + N] = carry;
        }
        self.redc(wide)
    }

    /// Montgomery square `a²·R⁻¹ mod m`: each cross product once, then
    /// doubled and the diagonal added — about ¾ of [`Fixed::mul`]'s limb
    /// products.
    fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        let mut wide = [[0u64; N]; 2];
        let t = wide.as_flattened_mut();
        for i in 0..N {
            let mut carry = 0u64;
            for j in i + 1..N {
                let acc = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
                t[i + j] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            t[i + N] = carry;
        }
        // The cross sum is below a²/2, so doubling cannot overflow 2N limbs.
        let mut top = 0u64;
        for limb in t.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = next;
        }
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let sq = ai as u128 * ai as u128;
            let lo = t[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
            t[2 * i] = lo as u64;
            let hi = t[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            carry = (hi >> 64) as u64;
        }
        self.redc(wide)
    }

    /// Montgomery reduction `T·R⁻¹ mod m` of a `2N`-limb `T < m·R`: N
    /// passes that each cancel the lowest limb by adding `u·m`.
    fn redc(&self, mut wide: [[u64; N]; 2]) -> [u64; N] {
        let t = wide.as_flattened_mut();
        // Carry into limb i + N + 1, added by the next pass.
        let mut spill = 0u64;
        for i in 0..N {
            let u = t[i].wrapping_mul(self.n0inv);
            let mut carry = 0u64;
            for (j, &mj) in self.m.iter().enumerate() {
                let acc = t[i + j] as u128 + u as u128 * mj as u128 + carry as u128;
                t[i + j] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            let acc = t[i + N] as u128 + carry as u128 + spill as u128;
            t[i + N] = acc as u64;
            spill = (acc >> 64) as u64;
        }
        // T < m·R keeps the result below 2m: one conditional subtract.
        let [_, mut r] = wide;
        let over = spill != 0
            || self
                .m
                .iter()
                .zip(&r)
                .rev()
                .find(|(mi, ri)| mi != ri)
                .is_none_or(|(mi, ri)| ri > mi);
        if over {
            let mut borrow = 0u64;
            for (ri, &mi) in r.iter_mut().zip(&self.m) {
                let (d1, b1) = ri.overflowing_sub(mi);
                let (d2, b2) = d1.overflowing_sub(borrow);
                *ri = d2;
                borrow = u64::from(b1 | b2);
            }
        }
        r
    }

    /// `base^exp` in Montgomery form for a nonzero `exp`, left to right
    /// over a sliding window of odd powers: a run of zero bits costs
    /// one squaring per bit, and each window of up to
    /// [`window_bits`] bits ending in a one costs its squarings plus
    /// one table multiply.
    fn pow(&self, base: &[u64; N], exp: &BigUint) -> [u64; N] {
        let bits = exp.bit_len();
        let w = window_bits(bits);
        // table[i] = base^(2i+1).
        let mut table = [[0u64; N]; 1 << (MAX_WINDOW - 1)];
        table[0] = *base;
        if w > 1 {
            let sq = self.sqr(base);
            for i in 1..1 << (w - 1) {
                table[i] = self.mul(&table[i - 1], &sq);
            }
        }
        // The window of at most w bits whose top bit is `top - 1`, cut
        // to end in a one: its low bit index and its odd value.
        let window = |top: usize| {
            let mut low = top.saturating_sub(w);
            while !exp.bit(low) {
                low += 1;
            }
            let value = (low..top)
                .rev()
                .fold(0, |v, b| (v << 1) | exp.bit(b) as usize);
            (low, value)
        };
        let (mut top, first) = window(bits);
        let mut acc = table[first >> 1];
        while top > 0 {
            if !exp.bit(top - 1) {
                acc = self.sqr(&acc);
                top -= 1;
                continue;
            }
            let (low, value) = window(top);
            for _ in low..top {
                acc = self.sqr(&acc);
            }
            acc = self.mul(&acc, &table[value >> 1]);
            top = low;
        }
        acc
    }
}

/// Primes below 1000 for trial division.
const SMALL_PRIMES: &[u64] = &[
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// A sign-magnitude integer used only by the extended Euclidean algorithm.
#[derive(Debug, Clone)]
struct SignedBig {
    negative: bool,
    mag: BigUint,
}

impl SignedBig {
    fn zero() -> Self {
        SignedBig {
            negative: false,
            mag: BigUint::zero(),
        }
    }

    fn from_biguint(mag: BigUint) -> Self {
        SignedBig {
            negative: false,
            mag,
        }
    }

    fn mul_biguint(&self, other: &BigUint) -> SignedBig {
        let mag = self.mag.mul(other);
        SignedBig {
            negative: self.negative && !mag.is_zero(),
            mag,
        }
    }

    fn sub(&self, other: &SignedBig) -> SignedBig {
        match (self.negative, other.negative) {
            (false, false) => {
                if self.mag.cmp_big(&other.mag) != Ordering::Less {
                    SignedBig {
                        negative: false,
                        mag: self.mag.sub(&other.mag),
                    }
                } else {
                    SignedBig {
                        negative: true,
                        mag: other.mag.sub(&self.mag),
                    }
                }
            }
            (false, true) => SignedBig {
                negative: false,
                mag: self.mag.add(&other.mag),
            },
            (true, false) => {
                let mag = self.mag.add(&other.mag);
                SignedBig {
                    negative: !mag.is_zero(),
                    mag,
                }
            }
            (true, true) => {
                // (-a) - (-b) = b - a
                if other.mag.cmp_big(&self.mag) != Ordering::Less {
                    SignedBig {
                        negative: false,
                        mag: other.mag.sub(&self.mag),
                    }
                } else {
                    SignedBig {
                        negative: true,
                        mag: self.mag.sub(&other.mag),
                    }
                }
            }
        }
    }

    /// Value reduced into `[0, m)`.
    fn rem_euclid(&self, m: &BigUint) -> BigUint {
        let r = self.mag.rem(m);
        if self.negative && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn bytes_roundtrip() {
        for v in [0u128, 1, 255, 256, u64::MAX as u128, u128::MAX, 1 << 64] {
            let n = big(v);
            let bytes = n.to_bytes_be();
            assert_eq!(BigUint::from_bytes_be(&bytes), n, "v={v}");
        }
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0]), BigUint::zero());
    }

    #[test]
    fn padded_bytes() {
        assert_eq!(big(1).to_bytes_be_padded(4).unwrap(), vec![0, 0, 0, 1]);
        assert_eq!(big(0x1_0000).to_bytes_be_padded(2), None);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(big(5).add(&big(7)), big(12));
        assert_eq!(big(12).sub(&big(7)), big(5));
        assert_eq!(
            big(u64::MAX as u128).add(&big(1)),
            big(u64::MAX as u128 + 1)
        );
        assert_eq!(
            big(u128::MAX).add(&big(1)).to_bytes_be(),
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, u64::MAX as u128),
            (12345, 6789),
            (u64::MAX as u128, u64::MAX as u128),
            ((1 << 63) + 12345, (1 << 60) + 999),
        ];
        for (a, b) in cases {
            assert_eq!(big(a).mul(&big(b)), big(a * b), "{a}*{b}");
        }
    }

    #[test]
    fn div_rem_matches_u128() {
        let cases = [
            (100u128, 7u128),
            (u128::MAX, 3),
            (u128::MAX, u64::MAX as u128),
            ((1 << 100) + 12345, (1 << 40) + 17),
            (1, 2),
            (0, 5),
            (81985529216486895, 81985529216486895),
        ];
        for (a, b) in cases {
            let (q, r) = big(a).div_rem(&big(b));
            assert_eq!(q, big(a / b), "{a}/{b} quotient");
            assert_eq!(r, big(a % b), "{a}%{b} remainder");
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..200 {
            let a = BigUint::random_bits(1 + (rng.next_u64() % 512) as usize, &mut rng);
            let b = BigUint::random_bits(1 + (rng.next_u64() % 256) as usize, &mut rng);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            assert!(r.cmp_big(&b) == Ordering::Less);
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(64), big(1 << 64));
        assert_eq!(big(1 << 64).shr(64), big(1));
        assert_eq!(big(0b1011).shl(3), big(0b1011000));
        assert_eq!(big(0b1011000).shr(3), big(0b1011));
        assert_eq!(big(7).shr(10), BigUint::zero());
    }

    #[test]
    fn modpow_known() {
        // 4^13 mod 497 = 445
        assert_eq!(big(4).modpow(&big(13), &big(497)), big(445));
        // Fermat: a^(p-1) = 1 mod p
        let p = big(1_000_000_007);
        let a = big(123_456_789);
        assert_eq!(a.modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        // mod 1 is 0
        assert_eq!(big(5).modpow(&big(3), &BigUint::one()), BigUint::zero());
    }

    /// Plain `mulmod` square-and-multiply: the reference the
    /// Montgomery ladder is checked against.
    fn schoolbook(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let mut b = base.rem(m);
        let bits = exp.bit_len();
        for i in 0..bits {
            if exp.bit(i) {
                result = result.mulmod(&b, m);
            }
            if i + 1 < bits {
                b = b.mulmod(&b, m);
            }
        }
        result
    }

    /// A random odd modulus of exactly `limbs` limbs.
    fn odd_modulus(limbs: usize, rng: &mut SplitMix64) -> BigUint {
        BigUint::random_bits(limbs * 64 - 1, rng)
            .shl(1)
            .add(&BigUint::one())
    }

    #[test]
    fn montgomery_modpow_matches_schoolbook() {
        // Every supported width, and moduli padded up to one (1, 3, 5
        // and 9 limbs), against a plain mulmod chain: random bases
        // including base ≥ m and base ≡ 0, e = 65537, and exponents on
        // both sides of each window-width boundary.
        let mut rng = SplitMix64::new(0x5eed_40d5);
        for limbs in [1, 2, 3, 4, 5, 8, 9, 16, 32, 64] {
            let m = odd_modulus(limbs, &mut rng);
            let base = BigUint::random_bits(limbs * 64 + 64, &mut rng);
            let mut exps = vec![BigUint::from_u64(1), BigUint::from_u64(65537)];
            for bits in [23, 24, 79, 80, 239, 240, 671, 672] {
                exps.push(BigUint::random_bits(bits, &mut rng));
            }
            for exp in &exps {
                assert_eq!(
                    base.modpow(exp, &m),
                    schoolbook(&base, exp, &m),
                    "limbs={limbs} exp bits={}",
                    exp.bit_len()
                );
            }
            // Degenerate bases and exponents.
            let exp = &exps[3];
            assert_eq!(BigUint::zero().modpow(exp, &m), BigUint::zero());
            assert_eq!(m.modpow(exp, &m), BigUint::zero());
            assert_eq!(base.modpow(&BigUint::zero(), &m), BigUint::one());
        }
    }

    #[test]
    fn montgomery_covers_odd_moduli_up_to_4096_bits() {
        let mut rng = SplitMix64::new(0x3d7b);
        let width = |m: &BigUint| Montgomery::new(m).map(|c| c.width);
        assert_eq!(width(&BigUint::one()), None);
        assert_eq!(width(&BigUint::from_u64(3)), Some(2));
        assert_eq!(width(&odd_modulus(5, &mut rng)), Some(8));
        assert_eq!(width(&odd_modulus(64, &mut rng)), Some(64));
        let even = odd_modulus(4, &mut rng).add(&BigUint::one());
        assert_eq!(width(&even), None);
        // Wider moduli keep the plain path.
        let wide = odd_modulus(65, &mut rng);
        assert_eq!(width(&wide), None);
        let base = BigUint::random_bits(4000, &mut rng);
        let exp = BigUint::from_u64(65537);
        assert_eq!(base.modpow(&exp, &wide), schoolbook(&base, &exp, &wide));
    }

    #[test]
    fn montgomery_square_matches_product() {
        fn check<const N: usize>(rng: &mut SplitMix64) {
            // m = R − 1 (every limb all ones) and a random modulus;
            // operands 0, 1, m − 1 and random residues stress every
            // carry path of the squaring.
            for m in [
                BigUint::one().shl(64 * N).sub(&BigUint::one()),
                odd_modulus(N, rng),
            ] {
                let mont = Montgomery::new(&m).expect("odd modulus in range");
                let f = Fixed::<N> {
                    m: to_limbs(&m),
                    n0inv: mont.n0inv,
                };
                let mut operands = vec![BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())];
                for _ in 0..8 {
                    operands.push(BigUint::random_below(&m, rng));
                }
                for a in &operands {
                    let a = to_limbs::<N>(a);
                    assert_eq!(f.sqr(&a), f.mul(&a, &a), "N={N}");
                }
            }
        }
        let mut rng = SplitMix64::new(0x5a5a);
        check::<2>(&mut rng);
        check::<4>(&mut rng);
        check::<8>(&mut rng);
        check::<16>(&mut rng);
        check::<32>(&mut rng);
        check::<64>(&mut rng);
    }

    #[test]
    fn window_width_follows_exponent_size() {
        let cases = [
            (17, 1),
            (23, 1),
            (24, 3),
            (79, 3),
            (80, 4),
            (239, 4),
            (240, 5),
            (512, 5),
            (671, 5),
            (672, 6),
            (4096, 6),
        ];
        for (bits, w) in cases {
            assert_eq!(window_bits(bits), w, "bits={bits}");
        }
        assert!(window_bits(usize::MAX) <= MAX_WINDOW);
    }

    #[test]
    fn gcd_and_inverse() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        let inv = big(3).mod_inverse(&big(11)).unwrap();
        assert_eq!(inv, big(4)); // 3*4 = 12 = 1 mod 11
        assert!(big(6).mod_inverse(&big(9)).is_none()); // gcd 3
                                                        // Large: e=65537 mod a big odd modulus
        let mut rng = SplitMix64::new(7);
        let m = BigUint::gen_prime(128, &mut rng);
        let e = big(65537);
        let d = e.mod_inverse(&m).unwrap();
        assert_eq!(e.mulmod(&d, &m), BigUint::one());
    }

    #[test]
    fn primality_small() {
        let mut rng = SplitMix64::new(1);
        let primes = [2u64, 3, 5, 17, 97, 257, 65537, 1_000_000_007];
        let composites = [
            1u64,
            4,
            15,
            91,
            561, /* Carmichael */
            65536,
            1_000_000_008,
        ];
        for p in primes {
            assert!(
                BigUint::from_u64(p).is_probable_prime(16, &mut rng),
                "{p} should be prime"
            );
        }
        for c in composites {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut rng = SplitMix64::new(99);
        let p = BigUint::gen_prime(96, &mut rng);
        assert_eq!(p.bit_len(), 96);
        assert!(p.is_odd());
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = SplitMix64::new(5);
        let bound = big(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&bound, &mut rng);
            assert!(v.cmp_big(&bound) == Ordering::Less);
        }
    }
}
